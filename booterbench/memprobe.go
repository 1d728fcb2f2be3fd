package main

import (
	"math/rand"
	"time"
)

// memProbe times a fixed pointer-chasing loop over a 32 MiB ring — far
// beyond any cache — and returns its duration in milliseconds. It does
// the same work on every call and shares no code with the system under
// test, so a change in its time is box drift (memory-system contention
// from other tenants), never a code change.
func memProbe() float64 {
	const slots = 4 << 20 // 4M uint64 = 32 MiB
	const steps = 2 << 20
	next := make([]uint64, slots)
	perm := rand.New(rand.NewSource(1)).Perm(slots)
	for i := range perm {
		next[perm[i]] = uint64(perm[(i+1)%slots])
	}
	start := time.Now()
	p := uint64(0)
	for i := 0; i < steps; i++ {
		p = next[p]
	}
	elapsed := time.Since(start)
	probeSink = p
	return ms(elapsed)
}

// probeSink keeps the chase from being optimised away.
var probeSink uint64
