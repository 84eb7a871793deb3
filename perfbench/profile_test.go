package main

import (
	"testing"
	"time"
)

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestCPUProfileAttributesStack(t *testing.T) {
	total, under, err := cpuProfile("repro/perfbench.spin", func() error {
		spin(300 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if under <= 0 || under > total {
		t.Fatalf("spin took %v of %v profiled CPU, want a positive share", under, total)
	}
	_, none, err := cpuProfile("repro/perfbench.absent", func() error {
		spin(50 * time.Millisecond)
		return nil
	})
	if err != nil || none != 0 {
		t.Fatalf("an absent function got %v (%v)", none, err)
	}
}
