package masu

import (
	"fmt"
	"reflect"
	"unsafe"
)

// ShadowImages returns the image of every live shadow-region entry,
// keyed by the NVM address of the metadata block it mirrors.
func (u *Unit) ShadowImages() map[uint64][64]byte {
	out := map[uint64][64]byte{}
	u.shadow.Range(func(i uint64, e *shadowEntry) bool {
		if e.live {
			if e.pending {
				u.fillShadow(i, e)
			}
			out[u.lay.CounterBase+i*64] = u.shadowImg.Get(i)
		}
		return true
	})
	return out
}

// StateDiff returns the path of the first field in which the states of
// u and o differ, or "" when they are identical. It compares by value
// everything reachable from the units — the counter store, the tree,
// both metadata caches down to their LRU stamps and hit counts, the
// shadow table, the line state bits and counters, the redo registers
// and the device's pages — skipping function values, the walk memo
// (host-only state: it holds what the last walk derived, and where a
// unit that loaded a page run at a time walked differs from one that
// wrote every line, nothing simulated does), and the redo op while
// neither ready bit is set (its bytes are then the stale contents of
// the last applied op, which nothing reads).
func StateDiff(u, o *Unit) string {
	c := differ{skipOp: !u.redo.ready && !o.redo.ready, seen: map[visit]bool{}}
	if d, same := c.diff(reflect.ValueOf(u), reflect.ValueOf(o)); !same {
		return d
	}
	return ""
}

// visit is a pair of pointers the differ has entered, so shared and
// cyclic structure is walked once.
type visit struct {
	a, b unsafe.Pointer
	t    reflect.Type
}

type differ struct {
	skipOp bool
	seen   map[visit]bool
}

var (
	redoLogType = reflect.TypeOf(redoLog{})
	unitType    = reflect.TypeOf(Unit{})
)

// diff compares a and b, which have the same type. On a difference it
// returns the path below a at which it lies.
func (c *differ) diff(a, b reflect.Value) (string, bool) {
	switch a.Kind() {
	case reflect.Func:
		return "", true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return "", a.IsNil() == b.IsNil()
		}
		if a.Kind() == reflect.Interface {
			if a.Elem().Type() != b.Elem().Type() {
				return "", false
			}
			return c.diff(a.Elem(), b.Elem())
		}
		v := visit{a.UnsafePointer(), b.UnsafePointer(), a.Type()}
		if c.seen[v] {
			return "", true
		}
		c.seen[v] = true
		return c.diff(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if c.skipOp && a.Type() == redoLogType && a.Type().Field(i).Name == "op" ||
				a.Type() == unitType && a.Type().Field(i).Name == "memo" {
				continue
			}
			if d, same := c.diff(a.Field(i), b.Field(i)); !same {
				return "." + a.Type().Field(i).Name + d, false
			}
		}
		return "", true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return "", false
		}
		if a.Len() == 0 || a.Kind() == reflect.Slice && a.Index(0).UnsafeAddr() == b.Index(0).UnsafeAddr() {
			return "", true
		}
		if plain(a.Type().Elem()) && a.Index(0).CanAddr() {
			n := uintptr(a.Len()) * a.Type().Elem().Size()
			return "", string(unsafe.Slice((*byte)(unsafe.Pointer(a.Index(0).UnsafeAddr())), n)) ==
				string(unsafe.Slice((*byte)(unsafe.Pointer(b.Index(0).UnsafeAddr())), n))
		}
		for i := 0; i < a.Len(); i++ {
			if d, same := c.diff(a.Index(i), b.Index(i)); !same {
				return fmt.Sprintf("[%d]%s", i, d), false
			}
		}
		return "", true
	case reflect.Bool:
		return "", a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return "", a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return "", a.Uint() == b.Uint()
	case reflect.String:
		return "", a.String() == b.String()
	}
	panic(fmt.Sprintf("StateDiff: unhandled kind %s", a.Kind()))
}

// plain reports whether values of type t are compared by their bytes:
// fixed-size numbers, and arrays and unpadded structs of them, which
// carry no padding and no pointers.
func plain(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return true
	case reflect.Array:
		return plain(t.Elem())
	case reflect.Struct:
		var size uintptr
		for i := 0; i < t.NumField(); i++ {
			if !plain(t.Field(i).Type) {
				return false
			}
			size += t.Field(i).Type.Size()
		}
		return size == t.Size()
	}
	return false
}

// ForgetWalk empties the unit's walk memo, so its next call derives
// every address, cache way and shadow entry afresh.
func (u *Unit) ForgetWalk() { u.forgetWalk() }
