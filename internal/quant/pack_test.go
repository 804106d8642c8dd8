package quant

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestPackRejectsFullPrecision(t *testing.T) {
	v := tensor.New(4)
	if _, err := Pack(v, nil); err == nil {
		t.Error("nil state did not error")
	}
	st := &State{Bits: 32}
	if _, err := Pack(v, st); err == nil {
		t.Error("32-bit state did not error")
	}
}

func TestPackUnpackRoundTripExact(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, k := range []int{2, 3, 5, 8, 13} {
		st, err := NewState(k)
		if err != nil {
			t.Fatalf("NewState: %v", err)
		}
		v := tensor.New(4, 9) // deliberately non-multiple-of-8 element count
		v.FillNormal(rng, 0, 1)
		st.Quantize(v) // snap onto the grid first
		p, err := Pack(v, st)
		if err != nil {
			t.Fatalf("Pack(k=%d): %v", k, err)
		}
		back, err := p.Unpack(4, 9)
		if err != nil {
			t.Fatalf("Unpack(k=%d): %v", k, err)
		}
		for i := range v.Data() {
			if math.Abs(float64(v.Data()[i]-back.Data()[i])) > 1e-6 {
				t.Fatalf("k=%d round-trip mismatch at %d: %v vs %v",
					k, i, v.Data()[i], back.Data()[i])
			}
		}
	}
}

func TestPackedSizeMatchesAccounting(t *testing.T) {
	// The Packed payload must be exactly ceil(n*k/8) bytes — the number
	// SizeBits/8 rounds to — pinning the simulated accounting to reality.
	rng := tensor.NewRNG(6)
	for _, tc := range []struct{ n, k int }{
		{100, 6}, {64, 8}, {33, 3}, {2, 2}, {1000, 13},
	} {
		st, err := NewState(tc.k)
		if err != nil {
			t.Fatalf("NewState: %v", err)
		}
		v := tensor.New(tc.n)
		v.FillNormal(rng, 0, 1)
		st.Quantize(v)
		p, err := Pack(v, st)
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		wantBytes := (tc.n*tc.k + 7) / 8
		if p.SizeBytes() != wantBytes {
			t.Errorf("n=%d k=%d payload %dB, want %dB", tc.n, tc.k, p.SizeBytes(), wantBytes)
		}
		simBits := SizeBits(tc.n, tc.k)
		if int64(p.SizeBytes()) < simBits/8 || int64(p.SizeBytes()) > simBits/8+1 {
			t.Errorf("packed size %dB inconsistent with SizeBits %d", p.SizeBytes(), simBits)
		}
	}
}

func TestUnpackShapeMismatch(t *testing.T) {
	rng := tensor.NewRNG(7)
	st, err := NewState(4)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	v := tensor.New(10)
	v.FillNormal(rng, 0, 1)
	st.Quantize(v)
	p, err := Pack(v, st)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if _, err := p.Unpack(3, 3); err == nil {
		t.Error("wrong-shape unpack did not error")
	}
}

// Property: pack∘unpack is the identity on any grid-snapped tensor for
// arbitrary bitwidths and sizes.
func TestPackRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		k := MinBits + rng.Intn(14)
		n := 1 + rng.Intn(200)
		st, err := NewState(k)
		if err != nil {
			return false
		}
		v := tensor.New(n)
		v.FillNormal(rng, 0, 1)
		st.Quantize(v)
		if st.Eps == 0 {
			return true
		}
		p, err := Pack(v, st)
		if err != nil {
			return false
		}
		back, err := p.Unpack(n)
		if err != nil {
			return false
		}
		for i := range v.Data() {
			if math.Abs(float64(v.Data()[i]-back.Data()[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBitStreamHelpers(t *testing.T) {
	buf := make([]byte, 8)
	writeBits(buf, 0, 0b101, 3)
	writeBits(buf, 3, 0b11111, 5)
	writeBits(buf, 8, 0x3FF, 10)
	if got := readBits(buf, 0, 3); got != 0b101 {
		t.Errorf("readBits(0,3) = %b", got)
	}
	if got := readBits(buf, 3, 5); got != 0b11111 {
		t.Errorf("readBits(3,5) = %b", got)
	}
	if got := readBits(buf, 8, 10); got != 0x3FF {
		t.Errorf("readBits(8,10) = %x", got)
	}
}

// TestUnpackRejectsCorruptRecords checks that a packed record whose
// fields cannot describe its payload returns ErrCorrupt instead of
// indexing out of range.
func TestUnpackRejectsCorruptRecords(t *testing.T) {
	x := tensor.New(5, 7)
	x.FillNormal(tensor.NewRNG(4), 0, 1)
	st, err := NewState(6)
	if err != nil {
		t.Fatal(err)
	}
	st.Refresh(x)
	st.SnapInPlace(x)
	good, err := Pack(x, st)
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(p *Packed){
		"truncated": func(p *Packed) { p.Data = p.Data[:len(p.Data)-1] },
		"empty":     func(p *Packed) { p.Data = nil },
		"bits 0":    func(p *Packed) { p.Bits = 0 },
		"bits 64":   func(p *Packed) { p.Bits = 64 },
		"count -1":  func(p *Packed) { p.Count = -1 },
	} {
		p := *good
		damage(&p)
		if _, err := p.Unpack(5, 7); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Unpack = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := good.Unpack(5, 7); err != nil {
		t.Fatalf("intact record: %v", err)
	}
}
