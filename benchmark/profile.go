package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// shareLayers are the host_share buckets, in report order.
var shareLayers = []string{
	"workload", "cpu", "mcore", "sim", "controller", "wpq", "misu", "masu",
	"ctr", "bmt", "toc", "crypt", "nvm", "cache", "runtime",
}

// layerOf maps a dolos/internal package to its host_share bucket. The
// packages not listed (stats, telemetry, layout, scheme, ...) are helpers:
// like standard-library frames, their samples count toward the nearest
// listed caller.
var layerOf = map[string]string{
	"whisper": "workload", "pmem": "workload", "trace": "workload",
	"cpu": "cpu", "mcore": "mcore", "sim": "sim", "controller": "controller",
	"wpq": "wpq", "misu": "misu", "masu": "masu", "ctr": "ctr", "bmt": "bmt",
	"toc": "toc", "crypt": "crypt", "nvm": "nvm", "cache": "cache",
}

// bucketOf returns the bucket of one sampled stack, frames leaf first:
// that of the leaf-most frame in a listed dolos/internal package, or
// "runtime" when there is none (GC workers, the scheduler, the
// benchmark's own code).
func bucketOf(frames []string) string {
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, "dolos/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if l, ok := layerOf[rest]; ok {
			return l
		}
	}
	return "runtime"
}

// profileShares decodes a gzip-compressed pprof CPU profile and returns
// each bucket's share of the sampled CPU time in percent, with samples
// labelled as a cell's untimed check left out. It also returns the
// number of profiler samples counted.
func profileShares(r io.Reader) (map[string]float64, int, error) {
	p, err := decodeProfile(r)
	if err != nil {
		return nil, 0, err
	}
	// A Go CPU profile has two values per stack: samples/count and
	// cpu/nanoseconds.
	ci, vi := -1, -1
	for i, t := range p.sampleTypes {
		switch p.str(t) {
		case "samples":
			ci = i
		case "cpu":
			vi = i
		}
	}
	if ci < 0 || vi < 0 {
		return nil, 0, fmt.Errorf("profile: not a CPU profile")
	}
	byBucket := make(map[string]int64)
	var total int64
	n := 0
	for _, s := range p.samples {
		if max(ci, vi) >= len(s.values) || p.checkSample(s) {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				frames = append(frames, p.str(p.functions[fn]))
			}
		}
		byBucket[bucketOf(frames)] += s.values[vi]
		total += s.values[vi]
		n += int(s.values[ci])
	}
	shares := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		if total > 0 {
			shares[l] = 100 * float64(byBucket[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, n, nil
}

// profile is the part of the pprof profile.proto message the bucketer
// reads. Names are string-table indices.
type profile struct {
	sampleTypes []uint64 // ValueType.type of each sample value
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, inlined leaf first
	functions   map[uint64]uint64   // function id -> name
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
	labels [][2]uint64 // (key, string value)
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

func (p *profile) checkSample(s sample) bool {
	for _, l := range s.labels {
		if p.str(l[0]) == labelKey && p.str(l[1]) == labelCheck {
			return true
		}
	}
	return false
}

var errBadProfile = errors.New("malformed profile")

// decodeProfile reads the profile.proto fields the bucketer needs with a
// minimal protobuf reader: the standard library has none, and the
// benchmark adds no module dependencies.
func decodeProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]uint64)}
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			return eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, v)
				}
				return nil
			})
		case 2: // sample: Sample{location_id = 1, value = 2, label = 3}
			var s sample
			err := eachField(data, func(n int, v uint64, d []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = appendVarints(s.locs, v, d)
				case 2:
					var vs []uint64
					vs, err = appendVarints(nil, v, d)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case 3: // Label{key = 1, str = 2}
					var l [2]uint64
					err = eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							l[n-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, l)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: Location{id = 1, line = 4: Line{function_id = 1}}
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: Function{id = 1, name = 2}
			var id, name uint64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: with the
// value of a varint field, or the bytes of a length-delimited one.
// Fixed-width fields are skipped; the profile has none it needs.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errBadProfile
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errBadProfile
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends the values of a repeated varint field, which
// arrives either packed into one length-delimited field (data non-nil)
// or as one field per value.
func appendVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errBadProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
