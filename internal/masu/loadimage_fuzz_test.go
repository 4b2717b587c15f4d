package masu_test

import (
	"testing"

	"dolos/internal/controller"
	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/masu"
	"dolos/internal/nvm"
	"dolos/internal/scheme"
	"dolos/internal/trace"
)

// Fuzzed images span fuzzPages pages of layout.Small and hold at most
// fuzzMaxLines lines, so one input runs in milliseconds.
const (
	fuzzPages    = 64
	fuzzMaxLines = 4096
)

// fuzzSchemes are the Ma-SU policies an input picks from: Triad-NVM's
// write-through counters and persisted levels, SuperMem's coalesced
// write-through counters, STUM's streamlined updates and the default.
var fuzzSchemes = []scheme.ID{scheme.TriadNVM, scheme.SuperMem, scheme.STUM, scheme.DolosPartial}

// fuzzImage decodes an input. Byte 0 picks the scheme (bits 0-1), the
// tree (bit 2), the Osiris period (bits 3-4, 0 = default) and Triad-NVM's
// persisted levels (bits 5-7, 0 = the scheme's). Each following 3-byte
// record (lo, hi, r) writes line (lo | hi<<8) mod the window r+1 times in
// a row, so any order, duplicates, page-straddling runs and the 128
// writes of one line that overflow its minor counter are expressible.
func fuzzImage(data []byte) (controller.Config, masu.Params, []trace.InitLine) {
	h := data[0]
	cfg := controller.Config{Scheme: fuzzSchemes[h&3], Tree: masu.TreeKind(h >> 2 & 1)}
	p := masu.Params{
		OsirisPeriod:      uint64(h >> 3 & 3),
		CounterCacheBytes: 4 * masu.MetaLineSize, // one set of 4 ways
		MTCacheBytes:      8 * masu.MetaLineSize, // one set of 8 ways
		Policy:            scheme.PipelineOf(cfg.Scheme).PolicyFor(int(h >> 5)),
	}
	var img []trace.InitLine
	for rec := data[1:]; len(rec) >= 3 && len(img) < fuzzMaxLines; rec = rec[3:] {
		addr := uint64(uint16(rec[0])|uint16(rec[1])<<8) % (fuzzPages * nvm.PageSize / 64) * 64
		for k := 0; k <= int(rec[2]) && len(img) < fuzzMaxLines; k++ {
			il := trace.InitLine{Addr: addr}
			for i := range il.Data {
				il.Data[i] = byte(len(img)) ^ byte(i*7)
			}
			img = append(img, il)
		}
	}
	return cfg, p, img
}

// FuzzLoadImage checks LoadImage against one ProcessWrite per line on
// arbitrary images over tiny metadata caches, so counter blocks and
// tree nodes are evicted during the load: neither side panics on an
// in-region image, and both leave identical state, before and after a
// crash. After the crash every image line's NVM bytes are the eager
// encryption of the last data written to it under its counter, computed
// from the crypt package alone, and after recovery ReadLine returns
// that data.
func FuzzLoadImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg, p, img := fuzzImage(data)
		var aesKey, macKey [16]byte
		copy(aesKey[:], "masu-aes-key-016")
		copy(macKey[:], "masu-mac-key-016")
		lay := layout.Small()
		var units [2]*masu.Unit
		var devs [2]*nvm.Device
		for i := range units {
			devs[i] = nvm.NewDevice(nil, lay.DeviceSize, 0)
			units[i] = masu.NewWithParams(cfg.EffectiveTree(), crypt.NewEngine(aesKey, macKey), devs[i], lay, p)
		}
		units[0].LoadImage(img)
		for _, il := range img {
			units[1].ProcessWrite(il.Addr, il.Data, -1)
		}
		if d := masu.StateDiff(units[0], units[1]); d != "" {
			t.Fatalf("state after the install differs at %s", d)
		}
		last := map[uint64][64]byte{}
		counters := map[uint64]uint64{}
		for _, il := range img {
			last[il.Addr] = il.Data
		}
		for addr := range last {
			counters[addr] = units[0].Counters().Counter(addr)
		}
		for _, u := range units {
			u.CrashVolatile()
		}
		if d := masu.StateDiff(units[0], units[1]); d != "" {
			t.Fatalf("state after the crash differs at %s", d)
		}
		if a, b := snapshotSHA256(devs[0]), snapshotSHA256(devs[1]); a != b {
			t.Fatalf("NVM after the crash differs: %s vs %s", a, b)
		}
		eng := crypt.NewEngine(aesKey, macKey)
		for addr, data := range last {
			iv := crypt.MakeIV(addr/nvm.PageSize, uint16(addr%nvm.PageSize/64), counters[addr])
			if got, want := devs[0].ReadLine(addr), eng.EncryptLine(data, iv); got != want {
				t.Fatalf("NVM line %#x after the crash is %x, want the eager ciphertext %x", addr, got, want)
			}
		}
		var err error
		if scheme.PipelineOf(cfg.Scheme).Recovery == scheme.RecoverReconstruct {
			_, err = units[0].RecoverReconstruct()
		} else {
			_, err = units[0].RecoverAnubis()
		}
		if err != nil {
			t.Fatalf("recovery after the crash: %v", err)
		}
		for addr, data := range last {
			if got, _, err := units[0].ReadLine(addr); err != nil || got != data {
				t.Fatalf("ReadLine(%#x) after recovery: %v, data equal %v", addr, err, got == data)
			}
		}
	})
}
