package sim

import (
	"errors"
	"testing"

	"april/internal/mult"
	"april/internal/network"
	"april/internal/rts"
	"april/internal/snapshot"
)

// TestRestoreRefusesOversizedIdentity: an image whose identity section
// declares a machine far larger than its state section could describe
// — huge frame counts, caches, tori, node counts — is refused as
// corrupt before Restore builds that machine.
func TestRestoreRefusesOversizedIdentity(t *testing.T) {
	cases := map[string]func(c *Config){
		"nodes":     func(c *Config) { c.Nodes = 1 << 20; c.Alewife = nil },
		"frames":    func(c *Config) { c.Profile.Frames = 1 << 30 },
		"cache":     func(c *Config) { c.Alewife.Cache.SizeBytes = 1 << 31 },
		"torus":     func(c *Config) { c.Alewife.Geometry = network.Geometry{Dim: 3, Radix: 4096} },
		"dimension": func(c *Config) { c.Alewife.Geometry = network.Geometry{Dim: 1 << 40, Radix: 1} },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			m, err := New(Config{Nodes: 4, Profile: rts.APRIL, Alewife: &AlewifeConfig{}})
			if err != nil {
				t.Fatal(err)
			}
			prog, err := mult.Compile(goldenQueens, mult.Mode{HardwareFutures: true}, m.StaticHeap())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Load(prog); err != nil {
				t.Fatal(err)
			}
			mutate(&m.Cfg)
			img, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Restore(img, RestoreOverrides{}); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("Restore = %v, want ErrCorrupt", err)
			}
		})
	}
}
