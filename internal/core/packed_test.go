package core

import (
	"reflect"
	"testing"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
)

// TestPackedEquivalenceAllBackends enforces the packed-image contract at the
// clustering level: packed and unpacked images, on every GPU execution
// strategy, must reproduce the serial backend's clustering bit for bit —
// packing changes the bytes a transfer moves, never a computed value.
func TestPackedEquivalenceAllBackends(t *testing.T) {
	g, _ := plantedTestGraph(240, 13)
	base := testOptions()
	const batchWords = 2_000 // force several batches and split lists

	serial, err := ClusterSerial(g, base)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name   string
		packed bool
	}{
		{"unpacked", false},
		{"packed", true},
	}
	for _, b := range chaosBackends(batchWords) {
		for _, m := range modes {
			o := base
			o.Plan.Packed = m.packed
			res, err := b.run(nil, g, o)
			if err != nil {
				t.Fatalf("%s %s: %v", b.name, m.name, err)
			}
			if !reflect.DeepEqual(serial.Clustering, res.Clustering) {
				t.Fatalf("%s %s: clustering differs from serial", b.name, m.name)
			}
		}
	}
}

// TestPackedShrinksH2DVolume pins the point of the whole exercise: on the
// same graph and batch plan, the packed image moves strictly fewer
// host→device bytes — and only the bandwidth-proportional volume term
// shrinks, never the result.
func TestPackedShrinksH2DVolume(t *testing.T) {
	g, _ := plantedTestGraph(300, 5)
	o := testOptions()
	o.Plan.BudgetWords = 4_000

	run := func(packed bool) *Result {
		oo := o
		oo.Plan.Packed = packed
		dev := gpusim.MustNew(gpusim.K20Config())
		res, err := ClusterGPU(g, dev, oo)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unpacked, packed := run(false), run(true)
	if !reflect.DeepEqual(unpacked.Clustering, packed.Clustering) {
		t.Fatal("packed clustering differs from unpacked")
	}
	if packed.Timings.H2DBytes >= unpacked.Timings.H2DBytes {
		t.Fatalf("packed run moved %d H2D bytes, unpacked %d — packing must shrink the upload",
			packed.Timings.H2DBytes, unpacked.Timings.H2DBytes)
	}
	if packed.Timings.H2DVolumeNs >= unpacked.Timings.H2DVolumeNs {
		t.Fatalf("packed H2D volume %.0f ns >= unpacked %.0f ns",
			packed.Timings.H2DVolumeNs, unpacked.Timings.H2DVolumeNs)
	}
	for _, r := range []*Result{unpacked, packed} {
		if r.Timings.H2DNs != r.Timings.H2DSetupNs+r.Timings.H2DVolumeNs {
			t.Fatalf("H2D time %.0f is not setup %.0f + volume %.0f",
				r.Timings.H2DNs, r.Timings.H2DSetupNs, r.Timings.H2DVolumeNs)
		}
	}
}

// TestPackedChaosEquivalence runs the packed path through random fault
// schedules: recovery — retries, batch splits, host fallback — must still
// land on the clean clustering, exactly as the unpacked chaos sweep does.
func TestPackedChaosEquivalence(t *testing.T) {
	g, _ := plantedTestGraph(200, 17)
	o := testOptions()
	o.Plan.BudgetWords = 2_000
	o.Plan.Packed = true

	for _, b := range chaosBackends(o.Plan.BudgetWords) {
		clean, err := b.run(nil, g, o)
		if err != nil {
			t.Fatalf("%s clean run: %v", b.name, err)
		}
		for seed := int64(40); seed < 48; seed++ {
			inj := faults.NewInjector(faults.RandSchedule(seed, 5))
			res, err := b.run(inj, g, o)
			if err != nil {
				t.Fatalf("%s seed %d (schedule %q): %v",
					b.name, seed, faults.RandSchedule(seed, 5).String(), err)
			}
			if !reflect.DeepEqual(clean.Clustering, res.Clustering) {
				t.Fatalf("%s seed %d: packed clustering under faults differs from clean run (faults: %s)",
					b.name, seed, res.Faults)
			}
		}
	}
}
