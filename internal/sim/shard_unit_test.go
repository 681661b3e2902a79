package sim

import (
	"testing"

	"april/internal/rts"
)

// TestShardSequentialPathUnaffected pins the guard rails: the oracle
// loop and the invariant checkers force one shard, and a sharded
// machine keeps the requested layout.
func TestShardSequentialPathUnaffected(t *testing.T) {
	mk := func(mutate func(*Config)) *Machine {
		cfg := Config{Nodes: 8, Profile: rts.APRIL, Alewife: &AlewifeConfig{}, Shards: 4}
		if mutate != nil {
			mutate(&cfg)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if got := mk(nil).part.Shards(); got != 4 {
		t.Errorf("sharded machine: %d shards, want 4", got)
	}
	if got := mk(func(c *Config) { c.Reference = true }).part.Shards(); got != 1 {
		t.Errorf("oracle loop: %d shards, want 1", got)
	}
	if got := mk(func(c *Config) { c.Check = true }).part.Shards(); got != 1 {
		t.Errorf("checkers armed: %d shards, want 1", got)
	}
}
