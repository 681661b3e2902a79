package main

import "testing"

// TestMemoryBytes pins the -mem range check: every value that fits in
// the 32-bit simulated address space converts exactly, and everything
// else is rejected instead of wrapping modulo 4 GiB.
func TestMemoryBytes(t *testing.T) {
	for _, tc := range []struct {
		mb   int
		want uint32
		ok   bool
	}{
		{0, 0, true},
		{256, 256 << 20, true},
		{4095, 4095 << 20, true},
		{4096, 0, false},
		{5000, 0, false},
		{-1, 0, false},
	} {
		got, err := memoryBytes(tc.mb)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("memoryBytes(%d) = %d, %v; want %d", tc.mb, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("memoryBytes(%d) = %d, want an error", tc.mb, got)
		}
	}
}

// TestCheckSizes pins the size-flag checks: -n below 1 and negative
// -compile-threshold, -trace-cap or -checkpoint-keep are usage errors,
// not a silent fallback to one node or the defaults.
func TestCheckSizes(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		n, threshold, traceCap, keep int
		ok                           bool
	}{
		{"defaults", 1, 0, 0, 0, true},
		{"explicit", 64, 8, 1024, 3, true},
		{"n=0", 0, 0, 0, 0, false},
		{"n=-1", -1, 0, 0, 0, false},
		{"compile-threshold=-1", 1, -1, 0, 0, false},
		{"trace-cap=-1", 1, 0, -1, 0, false},
		{"checkpoint-keep=-1", 1, 0, 0, -1, false},
	} {
		err := checkSizes(tc.n, tc.threshold, tc.traceCap, tc.keep)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkSizes = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
