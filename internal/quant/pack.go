package quant

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Bit packing. The training path simulates quantization on the float grid
// (see the package comment), but the memory claim of the paper is about
// *storage*: a k-bit tensor occupies k bits per element. This file makes
// that concrete — it packs a quantized tensor's grid indices into a dense
// bit stream and restores them — and is used by the checkpoint format in
// internal/models and by tests that pin the simulated-size accounting to
// the real encoded size.

// Packed is a bit-packed quantized tensor: ⌈n·k/8⌉ bytes of payload plus
// the affine grid needed to decode. The grid travels as its (Min, Max)
// endpoints so the decoder re-derives the same float64 level spacing the
// snap used — a packed tensor that was on its grid decodes bit-exactly.
type Packed struct {
	Bits  int
	Min   float32
	Max   float32
	Eps   float32 // float32 summary of the spacing; 0 marks a degenerate grid
	Count int
	Data  []byte
}

// ErrCorrupt marks a packed record whose fields cannot describe a valid
// payload (see Unpack).
var ErrCorrupt = errors.New("quant: corrupt packed tensor")

// Pack encodes t's elements as k-bit grid indices relative to st's grid.
// The tensor must already be snapped onto the grid (indices are derived
// by rounding; values off-grid round to the nearest level). Full-precision
// states cannot be packed. A degenerate grid (constant tensor, ε = 0)
// packs to an empty payload: every element equals Min.
func Pack(t *tensor.Tensor, st *State) (*Packed, error) {
	if st == nil || st.FullPrecision() {
		return nil, fmt.Errorf("quant: cannot bit-pack a full-precision tensor")
	}
	if st.Eps == 0 {
		return &Packed{Bits: st.Bits, Min: st.Min, Max: st.Max, Eps: 0, Count: t.Len()}, nil
	}
	k := st.Bits
	n := t.Len()
	p := &Packed{
		Bits:  k,
		Min:   st.Min,
		Max:   st.Max,
		Eps:   st.Eps,
		Count: n,
		Data:  make([]byte, (n*k+7)/8),
	}
	levels := uint64(1)<<uint(k) - 1
	// The same float64 spacing SnapInPlace projects with, so snapped
	// values recover their level index exactly.
	eps := (float64(st.Max) - float64(st.Min)) / float64(levels)
	lo := float64(st.Min)
	bitPos := 0
	for _, v := range t.Data() {
		q := math.Round((float64(v) - lo) / eps)
		if q < 0 {
			q = 0
		}
		if q > float64(levels) {
			q = float64(levels)
		}
		writeBits(p.Data, bitPos, uint64(q), k)
		bitPos += k
	}
	return p, nil
}

// Unpack decodes the payload back into a float tensor with the given
// shape. The element count must match. A packed record decoded from
// outside the process is untrusted: a bitwidth outside [MinBits, MaxBits),
// a negative dimension or a payload shorter than ⌈Count·Bits/8⌉ bytes
// returns ErrCorrupt instead of indexing out of range.
func (p *Packed) Unpack(shape ...int) (*tensor.Tensor, error) {
	if p.Bits < MinBits || p.Bits >= MaxBits {
		return nil, fmt.Errorf("%w: bitwidth %d not in [%d, %d)", ErrCorrupt, p.Bits, MinBits, MaxBits)
	}
	if p.Count < 0 {
		return nil, fmt.Errorf("%w: element count %d", ErrCorrupt, p.Count)
	}
	n := 1
	for _, d := range shape {
		if d < 0 || (d > 0 && n > p.Count/d) {
			return nil, fmt.Errorf("quant: unpack shape %v does not hold the %d packed elements", shape, p.Count)
		}
		n *= d
	}
	if n != p.Count {
		return nil, fmt.Errorf("quant: unpack shape %v wants %d elements, packed %d", shape, n, p.Count)
	}
	if p.Eps != 0 && p.Count > len(p.Data)*8/p.Bits {
		return nil, fmt.Errorf("%w: %d-byte payload holds fewer than %d %d-bit elements",
			ErrCorrupt, len(p.Data), p.Count, p.Bits)
	}
	out := tensor.New(shape...)
	d := out.Data()
	if p.Eps == 0 {
		for i := range d {
			d[i] = p.Min
		}
		return out, nil
	}
	levels := uint64(1)<<uint(p.Bits) - 1
	lo := float64(p.Min)
	eps := (float64(p.Max) - lo) / float64(levels)
	// Integrity check: the float32 Eps summary must agree with the grid
	// the endpoints span. A mismatch means a corrupt record — or one
	// written by the pre-Max format, whose gob decoding leaves Max = 0.
	if rel := math.Abs(eps-float64(p.Eps)) / float64(p.Eps); rel > 1e-3 {
		return nil, fmt.Errorf("quant: unpack: grid endpoints [%v, %v] disagree with eps %v (corrupt or pre-Max-format record)",
			p.Min, p.Max, p.Eps)
	}
	bitPos := 0
	for i := 0; i < p.Count; i++ {
		q := readBits(p.Data, bitPos, p.Bits)
		switch {
		case q == 0:
			d[i] = p.Min
		case q >= levels:
			d[i] = p.Max
		default:
			d[i] = float32(lo + float64(q)*eps)
		}
		bitPos += p.Bits
	}
	return out, nil
}

// SizeBytes returns the payload size.
func (p *Packed) SizeBytes() int { return len(p.Data) }

// writeBits stores the low k bits of v starting at bit position pos
// (little-endian within the byte stream).
func writeBits(buf []byte, pos int, v uint64, k int) {
	for i := 0; i < k; i++ {
		if v&(1<<uint(i)) != 0 {
			buf[(pos+i)/8] |= 1 << uint((pos+i)%8)
		}
	}
}

// readBits extracts k bits starting at bit position pos.
func readBits(buf []byte, pos int, k int) uint64 {
	var v uint64
	for i := 0; i < k; i++ {
		if buf[(pos+i)/8]&(1<<uint((pos+i)%8)) != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}
