package main

import "math"

// Reference results, written in plain sequential Go over slices with
// no import from the code under test: each mirrors the semantics of
// one generated program (forall is copy-in/copy-out: every read in a
// loop sees pre-loop values), not its implementation.

// refTol is the largest |got-want| accepted: the distributed programs
// evaluate the same expressions in the same order, so only printing
// round trips could differ.
const refTol = 1e-12

// closeTo reports whether got matches want elementwise within refTol.
func closeTo(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= refTol) {
			return false
		}
	}
	return true
}

// refJacobi2D is jacobi2dSource run sequentially; row-major n×n.
func refJacobi2D(n, sweeps, salt int) []float64 {
	u := make([]float64, n*n)
	for r := 1; r <= n; r++ {
		for c := 1; c <= n; c++ {
			if r == 1 || r == n || c == 1 || c == n {
				i := (r-1)*n + c
				u[i-1] = 1.0 + float64((i+salt)%7)
			}
		}
	}
	old := make([]float64, n*n)
	for s := 0; s < sweeps; s++ {
		copy(old, u)
		for r := 2; r <= n-1; r++ {
			for c := 2; c <= n-1; c++ {
				at := func(r, c int) float64 { return old[(r-1)*n+c-1] }
				u[(r-1)*n+c-1] = 0.25*at(r-1, c) + 0.25*at(r, c-1) + 0.25*at(r, c+1) + 0.25*at(r+1, c)
			}
		}
	}
	return u
}

// refShift is shiftSource run sequentially.
func refShift(n, sweeps, salt int) []float64 {
	a := make([]float64, n)
	for i := 1; i <= n; i++ {
		a[i-1] = float64((i*3 + salt) % 17)
	}
	for s := 0; s < sweeps; s++ {
		copy(a, a[1:]) // A[i] := A[i+1] for i < N; A[N] stays
	}
	return a
}

// refGather is gatherSource run sequentially.
func refGather(n, salt int) []float64 {
	b := make([]float64, n)
	for i := 1; i <= n; i++ {
		j := (i*7+salt)%n + 1
		b[i-1] = float64(j*j + salt%5)
	}
	return b
}

// refADI is adiSource run sequentially; row-major n×n.
func refADI(n, sweeps, salt int) []float64 {
	u := make([]float64, n*n)
	at := func(a []float64, r, c int) float64 { return a[(r-1)*n+c-1] }
	for r := 1; r <= n; r++ {
		for c := 1; c <= n; c++ {
			u[(r-1)*n+c-1] = float64((r*13 + c*7 + salt) % 11)
		}
	}
	old := make([]float64, n*n)
	for s := 0; s < sweeps; s++ {
		copy(old, u)
		for r := 1; r <= n; r++ {
			for c := 2; c <= n-1; c++ {
				u[(r-1)*n+c-1] = 0.25*at(old, r, c-1) + 0.5*at(old, r, c) + 0.25*at(old, r, c+1)
			}
		}
		copy(old, u)
		for c := 1; c <= n; c++ {
			for r := 2; r <= n-1; r++ {
				u[(r-1)*n+c-1] = 0.25*at(old, r-1, c) + 0.5*at(old, r, c) + 0.25*at(old, r+1, c)
			}
		}
	}
	return u
}

// haloValue is element i of the wall-halo input for one window: a
// closed form, so every node can rewrite its part and check its
// neighbours' without communication.
func haloValue(salt, window, i int) float64 {
	return float64((i*31+window*17+salt)%101) / 8
}

// transposeValue is element g (linearized, 0-based) of the
// wall-transpose array for one window.  A redistribution moves
// elements between nodes but never changes a[g], so the same closed
// form is the expected content after one and after two of them.
func transposeValue(salt, window, g int) float64 {
	return float64((g*7+window*13+salt)%1009) / 16
}
