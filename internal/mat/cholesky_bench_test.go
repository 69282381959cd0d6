package mat

import (
	"fmt"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/stats"
)

var benchChol *Cholesky

// BenchmarkCholesky times one full factorization per size, on both sides of
// the fold's fan-out crossover (foldFanOutMin), so the constant can be
// re-measured: run with -cpu 1,2 and compare.
func BenchmarkCholesky(b *testing.B) {
	for _, n := range []int{64, 160, 256, 512, 768} {
		a := randSPD(stats.NewRNG(uint64(n)), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ch, err := NewCholesky(a)
				if err != nil {
					b.Fatal(err)
				}
				benchChol = ch
			}
		})
	}
}
