package tensor

import (
	"fmt"
	"math"
)

// Add adds o into t element-wise, in place.
func (t *Tensor) Add(o *Tensor) error {
	if !t.SameShape(o) {
		return fmt.Errorf("%w: add %v to %v", ErrShape, o.shape, t.shape)
	}
	for i, v := range o.data {
		t.data[i] += v
	}
	return nil
}

// Sub subtracts o from t element-wise, in place.
func (t *Tensor) Sub(o *Tensor) error {
	if !t.SameShape(o) {
		return fmt.Errorf("%w: sub %v from %v", ErrShape, o.shape, t.shape)
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
	return nil
}

// Scale multiplies every element by s, in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// Apply replaces every element x with f(x), in place.
func (t *Tensor) Apply(f func(float32) float32) {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
}

// Sum returns the sum of all elements as float64 for numerical stability.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// AbsMean returns the mean of |x| over all elements.
func (t *Tensor) AbsMean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	var s float64
	for _, v := range t.data {
		s += math.Abs(float64(v))
	}
	return s / float64(len(t.data))
}

// MinMax returns the minimum and maximum element. For an empty tensor it
// returns (0, 0).
func (t *Tensor) MinMax() (min, max float32) {
	if len(t.data) == 0 {
		return 0, 0
	}
	min, max = t.data[0], t.data[0]
	for _, v := range t.data[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// ArgMaxRow returns, for a 2-D tensor, the column index of the maximum in
// row r.
func (t *Tensor) ArgMaxRow(r int) int {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRow on rank-%d tensor", t.Rank()))
	}
	cols := t.shape[1]
	row := t.data[r*cols : (r+1)*cols]
	bi := 0
	bv := row[0]
	for i := 1; i < len(row); i++ {
		if row[i] > bv {
			bv = row[i]
			bi = i
		}
	}
	return bi
}

// HasNaN reports whether any element is NaN or ±Inf.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}

// ClampInPlace limits every element to [lo, hi].
func (t *Tensor) ClampInPlace(lo, hi float32) {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
}
