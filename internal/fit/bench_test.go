package fit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// benchWindow is a replay-like window: 8 core counts and a stall category
// normalized to mean magnitude 1, growing and bending with measurement
// noise, the shape the Table-4 windows give the rational kernels.
func benchWindow() (xs, ys []float64) {
	xs = []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys = make([]float64, len(xs))
	sum := 0.0
	for i, x := range xs {
		ys[i] = (1 + 0.6*x + 0.05*x*x) / (1 + 0.08*x) * (1 + 0.03*math.Sin(5*x))
		sum += ys[i]
	}
	for i := range ys {
		ys[i] /= sum / float64(len(ys))
	}
	return xs, ys
}

// BenchmarkSolveLinear solves damped normal equations of the sizes the
// Levenberg–Marquardt kernels produce (n = 4 for ExpRat to 7 for Rat33),
// built from a random 8-observation Jacobian. Each op copies the system
// in, since the solver clobbers it.
func BenchmarkSolveLinear(b *testing.B) {
	for _, n := range []int{4, 5, 6, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const m = 8
			rng := rand.New(rand.NewSource(int64(n)))
			jac := make([]float64, n*m)
			for i := range jac {
				jac[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
			}
			r := make([]float64, m)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			jtj, jtr := make([]float64, n*n), make([]float64, n)
			normalEquations(jac, r, m, n, jtj, jtr)
			for j := 0; j < n; j++ {
				jtj[j*n+j] += 1e-3*jtj[j*n+j] + 1e-15
				jtr[j] = -jtr[j]
			}
			a, rhs, x := make([]float64, n*n), make([]float64, n), make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(a, jtj)
				copy(rhs, jtr)
				if err := solveLinear(a, rhs, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLevenbergMarquardt runs every standard start of each kernel LM
// fits on benchWindow, on one reused workspace, as a candidate fit does.
func BenchmarkLevenbergMarquardt(b *testing.B) {
	xs, ys := benchWindow()
	for _, k := range []*Kernel{Rat22, Rat23, Rat33, ExpRat} {
		b.Run(k.Name, func(b *testing.B) {
			starts := k.Starts(xs, ys)
			eval := k.window()
			var ws workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range starts {
					ws.levenbergMarquardt(eval, xs, ys, s)
				}
			}
		})
	}
}
