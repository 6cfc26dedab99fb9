package main

import (
	"fmt"
	"io"
)

// checkFactor is the size of the determinism self-test: 1/20 of full size
// is far below steady state, which does not matter for equality checks.
const checkFactor = 1.0 / 20

// sameModel reports the first deterministic field in which two units of
// the same seed and size differ.
func sameModel(a, b *unit) error {
	switch {
	case a.ops != b.ops || a.failed != b.failed || a.tolerated != b.tolerated:
		return fmt.Errorf("op counts differ: %d/%d/%d vs %d/%d/%d", a.ops, a.failed, a.tolerated, b.ops, b.failed, b.tolerated)
	case a.virtWindow != b.virtWindow || a.virtTotal != b.virtTotal:
		return fmt.Errorf("virt times differ: %v/%v vs %v/%v", a.virtWindow, a.virtTotal, b.virtWindow, b.virtTotal)
	case a.ctr != b.ctr:
		return fmt.Errorf("layer counters differ: %+v vs %+v", a.ctr, b.ctr)
	case len(a.lat) != len(b.lat) || len(a.updLat) != len(b.updLat):
		return fmt.Errorf("latency sample counts differ")
	}
	for i := range a.lat {
		if a.lat[i] != b.lat[i] {
			return fmt.Errorf("sorted virt latency %d differs: %v vs %v", i, a.lat[i], b.lat[i])
		}
	}
	return nil
}

// checkWorkload runs w at factor f twice on one seed (once with the traced
// pass) and once on another seed: same seed must give bit-identical virt
// metrics and counters, tracing must not perturb the model, and another
// seed must change the inputs.
func checkWorkload(w *workload, f float64) error {
	a, err := w.measure(1, f, true)
	if err == nil {
		err = a.gate(false)
	}
	if err == nil {
		_, err = a.tracedMetrics() // traced vs untraced: virt window and message count
	}
	if err != nil {
		return err
	}
	b, err := w.measure(1, f, false)
	if err != nil {
		return err
	}
	for i := range a.units {
		if err := sameModel(a.units[i], b.units[i]); err != nil {
			return fmt.Errorf("same seed, unit %d: %w", i, err)
		}
	}
	c, err := w.measure(2, f, false)
	if err != nil {
		return err
	}
	if sameModel(a.units[0], c.units[0]) == nil {
		return fmt.Errorf("seeds 1 and 2 gave identical results: the seed does not reach the inputs")
	}
	return nil
}

func selfCheck(out io.Writer) error {
	for i := range workloads {
		w := &workloads[i]
		if err := checkWorkload(w, checkFactor); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Fprintf(out, "check %-24s ok: same seed bit-identical, traced == untraced, other seed differs\n", w.name)
	}
	return nil
}
