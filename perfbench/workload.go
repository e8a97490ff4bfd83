package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// The three workloads, each stressing a different layer (see README.md).
const (
	wlSolveCold   = "solve-cold"
	wlServeHot    = "serve-hot"
	wlFabricChurn = "fabric-churn"
)

var workloadNames = []string{wlSolveCold, wlServeHot, wlFabricChurn}

const (
	// hotSetSize is serve-hot's working set: a quarter of the server's
	// default 1024-entry memory tier, so after the warm fill every request
	// is a memory hit.
	hotSetSize = 256
	// hotZipfS is the Zipf exponent of serve-hot's request popularity.
	hotZipfS = 1.0
	// churnPrefill is the number of distinct checks fabric-churn's untimed
	// pre-phase writes to the workers' disk tiers.
	churnPrefill = 160
	// churnFreshShare is the share of fabric-churn requests that ask a
	// check for the first time; the rest repeat an earlier one.
	churnFreshShare = 0.3
)

// mix is splitmix64 over (seed, stream, i): every random choice of a
// workload is a pure function of the seed and the request index, so one
// seed always yields the same stream and a replay can recompute any
// request without storing the stream.
func mix(seed uint64, stream, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ (i+1)*0x94d049bb133111eb
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps mix to [0,1).
func unit(seed uint64, stream, i uint64) float64 {
	return float64(mix(seed, stream, i)>>11) / (1 << 53)
}

// Random-stream identifiers, one per independent choice.
const (
	streamSuffix = iota + 1
	streamCycle
	streamZipf
	streamHotPerm
	streamFresh
	streamRepeat
	streamFill
	streamReask
)

// permutation is a seeded Fisher-Yates shuffle of 0..n-1.
func permutation(seed, stream, salt uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, stream, salt*1_000_003+uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// generator produces a workload's requests from its seed.
type generator struct {
	seed uint64
	// suffixBase offsets the rename suffixes so that different seeds ask
	// under different names; suffixBase+n is unique per question.
	suffixBase uint64
	wide       []fixture // the wide family in solve-cold's cycle weights
	cold       []fixture // solve-cold's full cycle
	hot        []fixture // serve-hot's fixture rotation
	hotSet     []request // serve-hot's working set, built once
	zipfCDF    []float64
	hotPerm    []int
}

func newGenerator(seed uint64) *generator {
	g := &generator{seed: seed, suffixBase: 100_000 + mix(seed, streamSuffix, 0)%900_000*1000}
	// Weighted toward the slow wide checks: 12 of 16 slots, most of them
	// 6 or 7 relations. The four small checks keep the 0-Acc, X, AccLTL+
	// and automaton engines in the mix.
	for _, kn := range [][2]int{{4, 2}, {5, 2}, {6, 4}, {7, 4}} {
		for n := 0; n < kn[1]; n++ {
			g.wide = append(g.wide, wideFixture(kn[0]))
		}
	}
	small := map[string]fixture{}
	for _, f := range checkFixtures() {
		small[f.name] = f
	}
	g.cold = append(append([]fixture(nil), g.wide...),
		small["chain4-nested"], small["chain4-xtower"], small["phone-until"], small["chain3-reach-automaton"])
	for _, n := range []string{"phone-intro", "phone-until", "phone-contra", "phone-never-bind",
		"chain3-reach", "chain4-nested", "chain4-xtower", "chain3-reach-automaton"} {
		g.hot = append(g.hot, small[n])
	}
	g.hot = append(g.hot, wideFixture(4))
	g.hot = append(g.hot, taskFixtures()...)
	for j := 0; j < hotSetSize; j++ {
		g.hotSet = append(g.hotSet, g.hot[j%len(g.hot)].request(g.suffix(uint64(j))))
	}

	g.zipfCDF = make([]float64, hotSetSize)
	total := 0.0
	for r := range g.zipfCDF {
		total += 1 / math.Pow(float64(r+1), hotZipfS)
		g.zipfCDF[r] = total
	}
	for r := range g.zipfCDF {
		g.zipfCDF[r] /= total
	}
	// Popularity rank r goes to a slot of fixture r mod len(hot), so every
	// seed gives each fixture the same share of the traffic and the seed
	// only picks which renamed copy is how popular.
	g.hotPerm = make([]int, hotSetSize)
	n := len(g.hot)
	for f := 0; f < n; f++ {
		var members []int
		for j := f; j < hotSetSize; j += n {
			members = append(members, j)
		}
		for k, p := range permutation(seed, streamHotPerm, uint64(f), len(members)) {
			g.hotPerm[members[k]] = members[p]
		}
	}
	return g
}

func (g *generator) suffix(n uint64) string { return fmt.Sprint(g.suffixBase + n) }

// cycled picks request i of a stream that walks a fixture list in seeded
// per-cycle orders, so every window of len(list) requests has the same
// composition whatever the seed.
func (g *generator) cycled(list []fixture, stream uint64, i int) fixture {
	n := len(list)
	perm := permutation(g.seed, stream, uint64(i/n), n)
	return list[perm[i%n]]
}

// coldRequest is solve-cold's request i: a never-asked question.
func (g *generator) coldRequest(i int) request {
	r := g.cycled(g.cold, streamCycle, i).request(g.suffix(uint64(i)))
	r.Fresh = true
	return r
}

// coldReask lists the stream indexes solve-cold re-asks after its run:
// n draws from the last window answered requests (at most last).
func (g *generator) coldReask(last, window, n int) []int {
	if last < window {
		window = last
	}
	out := make([]int, n)
	for k := range out {
		out[k] = last - 1 - int(mix(g.seed, streamReask, uint64(k))%uint64(window))
	}
	return out
}

// hotSlot is serve-hot's working-set member j.
func (g *generator) hotSlot(j int) request { return g.hotSet[j] }

// hotFillOrder is the order the warm fill asks the working set in.
func (g *generator) hotFillOrder() []int { return permutation(g.seed, streamFill, 0, hotSetSize) }

// hotRequest is serve-hot's request i: a Zipf-popular working-set member.
func (g *generator) hotRequest(i int) request {
	u := unit(g.seed, streamZipf, uint64(i))
	rank := sort.SearchFloat64s(g.zipfCDF, u)
	if rank >= hotSetSize {
		rank = hotSetSize - 1
	}
	return g.hotSlot(g.hotPerm[rank])
}

// churnStream is fabric-churn's input: the pre-phase checks, then the
// measured stream, generated on demand because a closed loop asks for as
// many requests as the fabric answers. Fresh checks walk the wide cycle
// under new names; repeats draw uniformly from every check asked before
// them, pre-phase included.
type churnStream struct {
	g       *generator
	prefill []request
	mu      sync.Mutex
	asked   []request // every fresh check so far, in order
	reqs    []request // the measured stream so far
}

func (g *generator) churnStream() *churnStream {
	cs := &churnStream{g: g}
	for len(cs.asked) < churnPrefill {
		cs.prefill = append(cs.prefill, cs.fresh())
	}
	return cs
}

func (cs *churnStream) fresh() request {
	n := len(cs.asked)
	r := cs.g.cycled(cs.g.wide, streamCycle, n).request(cs.g.suffix(uint64(n)))
	r.Fresh = true
	cs.asked = append(cs.asked, r)
	return r
}

// at returns request i of the measured stream.
func (cs *churnStream) at(i int) request {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for len(cs.reqs) <= i {
		k := uint64(len(cs.reqs))
		if unit(cs.g.seed, streamFresh, k) < churnFreshShare {
			cs.reqs = append(cs.reqs, cs.fresh())
			continue
		}
		r := cs.asked[mix(cs.g.seed, streamRepeat, k)%uint64(len(cs.asked))]
		r.Fresh = false
		cs.reqs = append(cs.reqs, r)
	}
	return cs.reqs[i]
}
