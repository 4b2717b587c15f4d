package crypt

// Dispatch is a devirtualized Provider: a concrete value that routes
// each primitive to the functional or fast engine with a nil check.
// The security units store a Dispatch rather than a Provider interface
// because pointer arguments passed through an interface call defeat
// escape analysis — every LineMAC(&ct, ...) on the hot path would move
// its caller's line to the heap, un-doing the PR 5 zero-allocation
// work. Calls through Dispatch are static, so the compiler's escape
// summaries for the concrete engines apply and stack buffers stay on
// the stack (pinned by the AllocsPerRun tests in this package, masu
// and misu).
type Dispatch struct {
	f *Engine
	x *FastEngine
	n *Counting // non-nil when the hashes and pads are counted
}

// AsDispatch wraps a Provider for devirtualized use. Only the two
// in-package engines implement the seam, optionally wrapped in a
// Counting; any other type panics.
func AsDispatch(p Provider) Dispatch {
	switch e := p.(type) {
	case *Engine:
		return Dispatch{f: e}
	case *FastEngine:
		return Dispatch{x: e}
	case *Counting:
		d := AsDispatch(e.Provider)
		d.n = e
		return d
	}
	panic("crypt: unsupported Provider implementation")
}

// Counting is a Provider that counts the hashes computed through it —
// line MACs, node MACs and ECC words — and the AES pads (every
// GeneratePad*, Encrypt* and Decrypt* call), and delegates every
// primitive to the engine it wraps (*Engine or *FastEngine). Tests use
// it to pin where the host hashes and encrypts; a unit built over it
// counts through its Dispatch as well.
type Counting struct {
	Provider
	LineMACs, NodeMACs, ECCs, Pads uint64
}

// GeneratePad counts and produces the pad for iv.
func (c *Counting) GeneratePad(iv IV) Pad {
	c.Pads++
	return c.Provider.GeneratePad(iv)
}

// GeneratePadInto counts and writes the pad for iv into *pad.
func (c *Counting) GeneratePadInto(pad *Pad, iv IV) {
	c.Pads++
	c.Provider.GeneratePadInto(pad, iv)
}

// EncryptLine counts a pad and encrypts plain with it.
func (c *Counting) EncryptLine(plain [BlockSize]byte, iv IV) [BlockSize]byte {
	c.Pads++
	return c.Provider.EncryptLine(plain, iv)
}

// EncryptLineTo counts a pad and encrypts *src into *dst with it.
func (c *Counting) EncryptLineTo(dst, src *[BlockSize]byte, iv IV) {
	c.Pads++
	c.Provider.EncryptLineTo(dst, src, iv)
}

// DecryptLine counts a pad and decrypts ct with it.
func (c *Counting) DecryptLine(ct [BlockSize]byte, iv IV) [BlockSize]byte {
	c.Pads++
	return c.Provider.DecryptLine(ct, iv)
}

// DecryptLineTo counts a pad and decrypts *src into *dst with it.
func (c *Counting) DecryptLineTo(dst, src *[BlockSize]byte, iv IV) {
	c.Pads++
	c.Provider.DecryptLineTo(dst, src, iv)
}

// LineMAC counts and computes the MAC over (ciphertext, address, counter).
func (c *Counting) LineMAC(ct *[BlockSize]byte, addr, counter uint64) MAC {
	c.LineMACs++
	return c.Provider.LineMAC(ct, addr, counter)
}

// NodeMAC counts and computes the MAC over a node payload plus position.
func (c *Counting) NodeMAC(payload []byte, position uint64) MAC {
	c.NodeMACs++
	return c.Provider.NodeMAC(payload, position)
}

// LineECC counts and computes the Osiris check over a plaintext line.
func (c *Counting) LineECC(plain *[BlockSize]byte) uint32 {
	c.ECCs++
	return c.Provider.LineECC(plain)
}

// Functional reports whether the wrapped provider is the real one.
func (d Dispatch) Functional() bool { return d.f != nil }

// GeneratePad produces the pad for iv.
func (d Dispatch) GeneratePad(iv IV) Pad {
	if d.n != nil {
		d.n.Pads++
	}
	if d.f != nil {
		return d.f.GeneratePad(iv)
	}
	return d.x.GeneratePad(iv)
}

// GeneratePadInto writes the pad for iv into *pad.
func (d Dispatch) GeneratePadInto(pad *Pad, iv IV) {
	if d.n != nil {
		d.n.Pads++
	}
	if d.f != nil {
		d.f.GeneratePadInto(pad, iv)
		return
	}
	d.x.GeneratePadInto(pad, iv)
}

// EncryptLine encrypts plain with the pad for iv.
func (d Dispatch) EncryptLine(plain [BlockSize]byte, iv IV) [BlockSize]byte {
	if d.n != nil {
		d.n.Pads++
	}
	if d.f != nil {
		return d.f.EncryptLine(plain, iv)
	}
	return d.x.EncryptLine(plain, iv)
}

// EncryptLineTo encrypts *src into *dst.
func (d Dispatch) EncryptLineTo(dst, src *[BlockSize]byte, iv IV) {
	if d.n != nil {
		d.n.Pads++
	}
	if d.f != nil {
		d.f.EncryptLineTo(dst, src, iv)
		return
	}
	d.x.EncryptLineTo(dst, src, iv)
}

// DecryptLine decrypts ct with the pad for iv.
func (d Dispatch) DecryptLine(ct [BlockSize]byte, iv IV) [BlockSize]byte {
	if d.n != nil {
		d.n.Pads++
	}
	if d.f != nil {
		return d.f.DecryptLine(ct, iv)
	}
	return d.x.DecryptLine(ct, iv)
}

// DecryptLineTo decrypts *src into *dst.
func (d Dispatch) DecryptLineTo(dst, src *[BlockSize]byte, iv IV) {
	if d.n != nil {
		d.n.Pads++
	}
	if d.f != nil {
		d.f.DecryptLineTo(dst, src, iv)
		return
	}
	d.x.DecryptLineTo(dst, src, iv)
}

// LineMAC computes the MAC over (ciphertext, address, counter).
func (d Dispatch) LineMAC(ct *[BlockSize]byte, addr, counter uint64) MAC {
	if d.n != nil {
		d.n.LineMACs++
	}
	if d.f != nil {
		return d.f.LineMAC(ct, addr, counter)
	}
	return d.x.LineMAC(ct, addr, counter)
}

// NodeMAC computes the MAC over a node payload plus position.
func (d Dispatch) NodeMAC(payload []byte, position uint64) MAC {
	if d.n != nil {
		d.n.NodeMACs++
	}
	if d.f != nil {
		return d.f.NodeMAC(payload, position)
	}
	return d.x.NodeMAC(payload, position)
}

// LineECC computes the Osiris check over a plaintext line.
func (d Dispatch) LineECC(plain *[BlockSize]byte) uint32 {
	if d.n != nil {
		d.n.ECCs++
	}
	if d.f != nil {
		return d.f.LineECC(plain)
	}
	return d.x.LineECC(plain)
}
