package main

import (
	"reflect"
	"testing"
)

func TestColdDescriptorsDeterministicDistinctValid(t *testing.T) {
	seen := map[string]bool{}
	hardware := map[[3]float64]bool{}
	for _, seed := range []int64{1, 2, 99} {
		for i := -2; i < 200; i++ {
			d := coldDescriptor(seed, i)
			if again := coldDescriptor(seed, i); !reflect.DeepEqual(d, again) {
				t.Fatalf("seed %d, i %d: two calls differ", seed, i)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("seed %d, i %d: %v", seed, i, err)
			}
			if seen[d.Name] {
				t.Fatalf("seed %d, i %d: name %q repeats", seed, i, d.Name)
			}
			seen[d.Name] = true
			hw := [3]float64{d.ClockGHz, d.MemBandwidthGBs, float64(d.ComputeUnits)}
			if hardware[hw] {
				t.Fatalf("seed %d, i %d: hardware %v repeats", seed, i, hw)
			}
			hardware[hw] = true
		}
	}
	if reflect.DeepEqual(coldDescriptor(1, 0), coldDescriptor(2, 0)) {
		t.Error("different seeds gave the same first descriptor")
	}
}
