// Benchmarks regenerating every figure in the paper's evaluation (§4) plus
// the DESIGN.md ablations, one sub-benchmark per runner.Figures entry at
// its default run count. cmd/rrmp-figures prints the tables.
package repro_test

import (
	"testing"

	"repro"
	"repro/internal/runner"
)

// BenchmarkFigures runs each catalogue entry once per iteration, seeded by
// the iteration: `go test -run '^$' -bench Figures -benchtime 1x .`
// regenerates the whole evaluation once.
func BenchmarkFigures(b *testing.B) {
	for _, f := range runner.Figures {
		b.Run(f.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(f.Runs, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublishThroughput measures raw simulator throughput: events per
// published message on a lossless 100-member region (engineering metric,
// not a paper figure).
func BenchmarkPublishThroughput(b *testing.B) {
	g, err := repro.NewGroup(repro.GroupConfig{Scenario: repro.Scenario{Regions: []int{100}}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Publish(make([]byte, 64))
		g.Run(0)
	}
}
