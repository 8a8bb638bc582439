package inject

import (
	"context"
	"testing"

	"fidelity/internal/faultmodel"
	"fidelity/internal/numerics"
)

// BenchmarkExperiment times one steady-state replayed experiment on a warmed
// injector, the way a campaign shard runs it: reseed the sampler from the
// experiment's own seed, then Run. One sub-benchmark per network and fault
// model that runs a forward pass (global control classifies without one);
// allocs/op is what an experiment costs the garbage collector.
func BenchmarkExperiment(b *testing.B) {
	ctx := context.Background()
	for _, net := range []string{"mobilenet", "resnet", "transformer"} {
		inj := newInjector(b, net, numerics.FP16, 1)
		for _, id := range faultmodel.AllIDs() {
			if id == faultmodel.GlobalControl {
				continue
			}
			b.Run(net+"/"+id.String(), func(b *testing.B) {
				run := func(seed int64) {
					inj.Sampler.Reseed(seed)
					if _, err := inj.Run(ctx, id, 0.1); err != nil {
						b.Fatal(err)
					}
				}
				for seed := int64(0); seed < 64; seed++ { // fill the arena's free lists
					run(seed)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(int64(i))
				}
			})
		}
	}
}
