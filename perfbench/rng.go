package main

// rng is a splitmix64 stream: every generated input derives from the
// run's seed through it, so the same seed gives the same inputs.
type rng struct{ s uint64 }

// newRNG derives an independent stream for (seed, salt...).
func newRNG(seed uint64, salt ...uint64) *rng {
	g := &rng{s: seed}
	for _, v := range salt {
		g.s ^= (v + 1) * 0x9E3779B97F4A7C15
		g.next()
	}
	return g
}

func (g *rng) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (g *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
