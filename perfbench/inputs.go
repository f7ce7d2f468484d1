package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// Input generation. Everything a run sends is derived here from the
// workload seed with math/rand (whose seeded stream is fixed across Go
// releases) and encoded by the benchmark's own wire structs, so the inputs
// do not move when the program's types or random streams change. The
// program only ever sees the encoded bytes.

// wireScenario mirrors the scenario fields of the /v1/solve and sweep
// documents that the benchmark sets.
type wireScenario struct {
	N          int     `json:"N"`
	AnchorFrac float64 `json:"AnchorFrac"`
	Field      float64 `json:"Field"`
	Prop       string  `json:"Prop,omitempty"`
	DOI        float64 `json:"DOI,omitempty"`
	NoiseFrac  float64 `json:"NoiseFrac,omitempty"`
	Loss       float64 `json:"Loss,omitempty"`
	Seed       uint64  `json:"Seed"`
}

type wireOpts struct {
	GridN    int `json:"grid_n,omitempty"`
	BPRounds int `json:"bp_rounds,omitempty"`
}

type wireSpec struct {
	Scenario  wireScenario `json:"scenario"`
	Algorithm string       `json:"algorithm"`
	AlgOpts   wireOpts     `json:"alg_opts"`
	Seed      uint64       `json:"seed"`
}

type wireSweep struct {
	Name       string         `json:"name"`
	Scenarios  []wireScenario `json:"scenarios"`
	Algorithms []string       `json:"algorithms"`
	AlgOpts    []wireOpts     `json:"alg_opts"`
	Seeds      []uint64       `json:"seeds"`
	Trials     int            `json:"trials"`
}

// fieldFor keeps the node density of the canonical DESIGN.md scenario
// (150 nodes on a 100 m × 100 m field) at n nodes.
func fieldFor(n int) float64 { return math.Round(100*math.Sqrt(float64(n)/150)*100) / 100 }

// seedSet draws distinct seeds in [1, 2^31): 0 is reserved for the warm-up
// requests, which must lie outside every timed set.
type seedSet struct {
	r    *rand.Rand
	seen map[uint64]bool
}

func newSeedSet(r *rand.Rand) *seedSet { return &seedSet{r: r, seen: map[uint64]bool{}} }

func (s *seedSet) next() uint64 {
	for {
		v := uint64(s.r.Int63n(1<<31-1)) + 1
		if !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding generated input: %v", err))
	}
	return b
}

// Nominal operation rates on the reference host (2 CPUs). They turn
// --seconds into a fixed operation count; they are constants, never
// measured, so the same seed and --seconds always give the same list.
const (
	solveColdRate   = 4.8   // solves per second
	serveZipfRate   = 400.0 // Poisson arrivals per second
	sweepResumeRate = 80.0  // resume operations per second
)

// solve-cold: distinct paper-scale bncl-grid specs (R = 15 m, 10-15%
// anchors, default 40×40 grid, canonical node density). The 12 classes are
// each repeated equally often, so only topology and algorithm seeds change
// with the workload seed and the cost mix stays the same.
var (
	coldProps   = []string{"unitdisk", "qudg", "doi"}
	coldAnchors = []float64{0.10, 0.15}
	coldLoss    = []float64{0, 0.05}
)

const coldN = 40

func coldSpec(prop string, anchors, loss float64, scenSeed, algSeed uint64) wireSpec {
	sc := wireScenario{N: coldN, AnchorFrac: anchors, Field: fieldFor(coldN), Prop: prop, Loss: loss, Seed: scenSeed}
	if prop == "doi" {
		sc.DOI = 0.1
	}
	return wireSpec{Scenario: sc, Algorithm: "bncl-grid", Seed: algSeed}
}

// coldWarmup is the solve-cold warm-up request: seed 0 keeps it outside
// every timed set.
func coldWarmup() []byte { return mustJSON(coldSpec("unitdisk", 0.10, 0, 0, 0)) }

// solveColdBodies returns the pre-encoded request bodies of one solve-cold
// run, in send order.
func solveColdBodies(seed int64, seconds int) [][]byte {
	classes := len(coldProps) * len(coldAnchors) * len(coldLoss)
	reps := int(math.Ceil(float64(seconds) * solveColdRate / float64(classes)))
	r := rand.New(rand.NewSource(seed))
	seeds := newSeedSet(r)
	var bodies [][]byte
	for rep := 0; rep < reps; rep++ {
		for _, prop := range coldProps {
			for _, a := range coldAnchors {
				for _, l := range coldLoss {
					bodies = append(bodies, mustJSON(coldSpec(prop, a, l, seeds.next(), seeds.next())))
				}
			}
		}
	}
	r.Shuffle(len(bodies), func(i, j int) { bodies[i], bodies[j] = bodies[j], bodies[i] })
	return bodies
}

// serve-zipf: K small specs, more than the server's memo holds. Rank k of
// the Zipf draw always maps to the same spec class, so the hot set has the
// same cost mix for every seed; the seed picks topologies, the draw, the
// arrival times and which repeats revalidate.
//
// The traffic shape is assumed, not measured: no request trace of the
// service exists. The exponent, the revalidation share and delay, and the
// placement of baselines were chosen so that the timed phase stays below
// saturation and its figures repeat between runs. Published web-proxy
// traces are flatter (Breslau et al., INFOCOM 1999, report Zipf-like
// exponents of 0.64-0.83), which would mean more misses and a heavier tail.
const (
	zipfKeys       = 1024
	zipfS          = 1.1
	zipfMemo       = 128 // MemoEntries: an eighth of the keys fit in memory
	zipfRevalidate = 0.2 // share of eligible repeats sent with If-None-Match
	zipfRevalAfter = 0.5 // seconds a key must have been scheduled before
	zipfBaseEvery  = 8   // every 8th rank of the hot set is a baseline
	zipfHot        = 128 // the ranks baselines are drawn from
)

var zipfBaselines = []string{"centroid", "dv-hop", "min-max", "w-centroid"}

// zipfProps leaves out doi, which solves about a third slower at this
// size, and baselines sit among the hot ranks the prefill always reaches:
// the timed phase's misses then have one cost, and the p99 reads the
// service time of a miss, not the share of slow or fast keys among the
// few new ones a run happens to draw.
var zipfProps = []string{"unitdisk", "qudg"}

func zipfSpec(k int, scenSeed, algSeed uint64) wireSpec {
	if k < zipfHot && k%zipfBaseEvery == zipfBaseEvery-1 {
		return wireSpec{
			Scenario:  wireScenario{N: 40, AnchorFrac: 0.15, Field: fieldFor(40), Seed: scenSeed},
			Algorithm: zipfBaselines[(k/zipfBaseEvery)%len(zipfBaselines)],
			Seed:      algSeed,
		}
	}
	sc := wireScenario{N: 16, AnchorFrac: 0.2, Field: fieldFor(16), Prop: zipfProps[k%len(zipfProps)], Seed: scenSeed}
	return wireSpec{Scenario: sc, Algorithm: "bncl-grid", AlgOpts: wireOpts{GridN: 10, BPRounds: 6}, Seed: algSeed}
}

// zipfWarmup lies outside the key set (seed 0).
func zipfWarmup() []byte { return mustJSON(zipfSpec(0, 0, 0)) }

// arrival is one scheduled serve-zipf request.
type arrival struct {
	due        float64 // seconds after the start of the timed phase
	key        int
	revalidate bool // send If-None-Match when the client holds the key's ETag
}

// zipfPrefill is how many requests, drawn from the same Zipf law, bring
// the server to its steady state before the timed phase: the hot keys in
// the memory tier, the warm ones on disk, and misses only for keys not yet
// asked for. Without it the timed phase would open with a burst of misses
// that saturates the server, which is not the below-saturation regime this
// workload measures.
const zipfPrefill = 8000

// zipfInputs returns the key bodies, the untimed prefill draw and the
// arrival schedule of one run.
func zipfInputs(seed int64, seconds int) (keys [][]byte, prefill []int, sched []arrival) {
	r := rand.New(rand.NewSource(seed))
	seeds := newSeedSet(r)
	keys = make([][]byte, zipfKeys)
	for k := range keys {
		keys[k] = mustJSON(zipfSpec(k, seeds.next(), seeds.next()))
	}
	z := rand.NewZipf(r, zipfS, 1, zipfKeys-1)
	// first[k] is when key k was first asked for; prefill keys count as
	// asked for long before the timed phase.
	first := map[int]float64{}
	for i := 0; i < zipfPrefill; i++ {
		k := int(z.Uint64())
		prefill = append(prefill, k)
		first[k] = math.Inf(-1)
	}
	for t := r.ExpFloat64() / serveZipfRate; t < float64(seconds); t += r.ExpFloat64() / serveZipfRate {
		k := int(z.Uint64())
		reval := r.Float64() < zipfRevalidate
		f, seen := first[k]
		if !seen {
			first[k] = t
		}
		sched = append(sched, arrival{due: t, key: k, revalidate: reval && seen && t-f >= zipfRevalAfter})
	}
	return keys, prefill, sched
}

// sweep-resume: a base grid (scenarios × algorithms incl. bncl-grid ×
// seeds) cold-filled during set-up, and one fresh single-seed slice of
// cheap baselines per timed operation.
var (
	sweepAnchors   = []float64{0.15, 0.25}
	sweepNoise     = []float64{0.05, 0.10}
	sweepBaseAlgs  = []string{"bncl-grid", "centroid", "dv-hop", "min-max"}
	sweepFreshAlgs = []string{"centroid", "dv-hop", "min-max"}
)

const (
	sweepN         = 20
	sweepBaseSeeds = 8
	// sweepLoss makes the baselines' flood traffic depend on the
	// algorithm's random stream, so the traced replay's evaluation check
	// also covers how the engine seeds that stream.
	sweepLoss = 0.05
)

type sweepInputs struct {
	base  []byte   // the base grid document
	fresh [][]byte // one fresh-slice document per timed operation
}

func sweepDocs(seed int64, seconds int) sweepInputs {
	r := rand.New(rand.NewSource(seed))
	seeds := newSeedSet(r)
	var scen []wireScenario
	for _, a := range sweepAnchors {
		for _, nf := range sweepNoise {
			scen = append(scen, wireScenario{N: sweepN, AnchorFrac: a, Field: fieldFor(sweepN), NoiseFrac: nf, Loss: sweepLoss, Seed: seeds.next()})
		}
	}
	opts := []wireOpts{{GridN: 12, BPRounds: 8}}
	base := wireSweep{Name: "perfbench-base", Scenarios: scen, Algorithms: sweepBaseAlgs, AlgOpts: opts, Trials: 1}
	for i := 0; i < sweepBaseSeeds; i++ {
		base.Seeds = append(base.Seeds, seeds.next())
	}
	in := sweepInputs{base: mustJSON(base)}
	ops := int(math.Ceil(float64(seconds) * sweepResumeRate))
	for i := 0; i < ops; i++ {
		in.fresh = append(in.fresh, mustJSON(wireSweep{
			Name: "perfbench-fresh", Scenarios: scen, Algorithms: sweepFreshAlgs, AlgOpts: opts,
			Seeds: []uint64{seeds.next()}, Trials: 1,
		}))
	}
	return in
}
