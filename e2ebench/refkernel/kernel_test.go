package main

import "testing"

// TestKernelFrozen pins the kernel's output and nominal time. A change to
// either changes every host-normalized figure the benchmark reports, so it
// must be a deliberate edit of both the kernel and this test.
func TestKernelFrozen(t *testing.T) {
	if got := Run(); got != Checksum {
		t.Fatalf("kernel checksum = %d, want %d", got, Checksum)
	}
	if got := Run(); got != Checksum {
		t.Fatalf("second run checksum = %d, want %d: the kernel keeps state between runs", got, Checksum)
	}
	if NominalMS != 100.0 {
		t.Fatalf("NominalMS = %v, want 100", NominalMS)
	}
}
