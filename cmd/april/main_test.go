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
