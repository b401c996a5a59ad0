package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"leonardo"
	"leonardo/internal/fitness"
	"leonardo/internal/gaitserve"
	"leonardo/internal/genome"
	"leonardo/internal/repertoire"
)

// Input streams: each workload input is drawn from its own stream of
// the workload seed, so adding inputs to one stream never shifts
// another.
const (
	streamGAP uint64 = iota + 1
	streamWarm
	streamArchive
	streamBatch
	streamRead
)

func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// mix returns input i of a stream of the workload seed.
func mix(seed, stream uint64, i int) uint64 {
	return splitmix64(splitmix64(seed) ^ splitmix64(stream<<40^uint64(i)))
}

// gapSpec is a paper-parameter behavioural GAP run with a fresh seed.
func gapSpec(seed, stream uint64, i int) leonardo.RunSpec {
	return leonardo.RunSpec{Kind: leonardo.KindGAP, Seed: mix(seed, stream, i)}
}

// repertoireSpec is a default-grid repertoire run of the given budget.
func repertoireSpec(seed, stream uint64, i, evals int) leonardo.RunSpec {
	return leonardo.RunSpec{Kind: leonardo.KindRepertoire, Seed: mix(seed, stream, i), Evaluations: evals}
}

// batchSeed fixes evolve-read's batch. How many clock cycles a
// gate-level generation takes, and how long a repertoire trial runs,
// depend on the random stream, so batches drawn from different seeds
// differ in work by up to a fifth; one fixed batch keeps makespans
// comparable between runs. The workload seed still draws the finished
// archives and the read sequence.
const batchSeed = 1

// batchSpecs is evolve-read's batch, in submission order: two
// repertoire runs (first, so they take the daemon's two workers and
// checkpoint early), the lane-packed archipelago (64 demes), the
// gate-level run (8 seeds) and an island run whose 7-step genome never
// reaches the perfect score, so it runs its whole budget. Every spec
// keeps its default Workers, so each run spreads its evaluations over
// GOMAXPROCS workers as it would for any client.
func batchSpecs(sc scale) []leonardo.RunSpec {
	const seed = batchSeed
	base := (mix(seed, streamBatch, 3) & 0xffff) << 4
	seeds := make([]uint64, 8)
	for k := range seeds {
		seeds[k] = base + uint64(k) + 1 // consecutive, so their CA states differ
	}
	return []leonardo.RunSpec{
		repertoireSpec(seed, streamBatch, 0, sc.repEvals),
		repertoireSpec(seed, streamBatch, 2, sc.repEvals),
		{Kind: leonardo.KindLanePack, Seed: mix(seed, streamBatch, 1), MaxGenerations: sc.laneGens},
		{Kind: leonardo.KindCircuit, Seed: seeds[0], Seeds: seeds, Generations: sc.circGens},
		{Kind: leonardo.KindIsland, Seed: mix(seed, streamBatch, 4), Islands: 8, Steps: 7, MaxGenerations: sc.islandGens},
	}
}

// facadeDigest drives a spec to completion directly through the
// leonardo facade and returns the sha256 of its final snapshot: what
// the daemon's final checkpoint of the same spec must hash to.
func facadeDigest(spec leonardo.RunSpec) ([32]byte, error) {
	r, err := spec.NewRunner()
	if err != nil {
		return [32]byte{}, err
	}
	for !r.Done() {
		if err := r.Step(); err != nil {
			return [32]byte{}, err
		}
	}
	return sha256.Sum256(r.Snapshot()), nil
}

// query is one gait lookup: descriptors that bin into an occupied
// cell, the URL parameters that carry them exactly, and the expected
// response body where it is known in advance.
type query struct {
	heading, stride float64
	params          string // "&heading=...&stride=..."
	path            string // the whole request path of a finished archive's query
	want            []byte // nil for live archives, checked by checkLive
}

func newQuery(heading, stride float64) query {
	return query{
		heading: heading, stride: stride,
		params: "&heading=" + url.QueryEscape(strconv.FormatFloat(heading, 'g', -1, 64)) +
			"&stride=" + url.QueryEscape(strconv.FormatFloat(stride, 'g', -1, 64)),
	}
}

// target is a finished archive the daemon serves: its run id, a query
// per occupied cell, and its snapshot bytes (for the replay).
type target struct {
	id      string
	queries []query
	snap    []byte
}

// archiveTarget decodes a finished archive in process and renders the
// exact response the daemon must give for each occupied cell's own
// measured descriptors: gaitserve.AppendLookup over the decoded
// archive's Lookup.
func archiveTarget(id string, snap []byte) (target, error) {
	arch, err := repertoire.DecodeArchive(snap)
	if err != nil {
		return target{}, fmt.Errorf("archive %s: %w", id, err)
	}
	t := target{id: id, snap: snap}
	g := arch.Grid()
	for i := 0; i < g.Cells(); i++ {
		if !arch.Filled(i) {
			continue
		}
		el := arch.Cell(i)
		q := newQuery(el.HeadingRad, el.StrideMM)
		got, ok := arch.Lookup(q.heading, q.stride)
		h, s, inGrid := g.Bin(q.heading, q.stride)
		if !ok || !inGrid {
			return target{}, fmt.Errorf("archive %s: elite of cell %d does not look itself up", id, i)
		}
		q.path = "/v1/gaits?run=" + id + q.params
		q.want = gaitserve.AppendLookup(nil, id, q.heading, q.stride, h, s, got)
		t.queries = append(t.queries, q)
	}
	if len(t.queries) == 0 {
		return target{}, fmt.Errorf("archive %s holds no gaits", id)
	}
	return t, nil
}

// liveQueries drives a repertoire spec through the facade to its first
// checkpoint and returns a query for each gait it holds then, with the
// archive's grid. A filled cell never empties, so the daemon answers
// every one of them from the run's first checkpoint on.
func liveQueries(spec leonardo.RunSpec) ([]query, repertoire.Grid, error) {
	r, err := spec.NewRunner()
	if err != nil {
		return nil, repertoire.Grid{}, err
	}
	for k := 0; k < checkpointStride && !r.Done(); k++ {
		if err := r.Step(); err != nil {
			return nil, repertoire.Grid{}, err
		}
	}
	arch, err := repertoire.DecodeArchive(r.Snapshot())
	if err != nil {
		return nil, repertoire.Grid{}, err
	}
	var qs []query
	for _, el := range arch.Elites() {
		qs = append(qs, newQuery(el.HeadingRad, el.StrideMM))
	}
	if len(qs) == 0 {
		return nil, repertoire.Grid{}, fmt.Errorf("repertoire seed %d holds no gaits at its first checkpoint", spec.Seed)
	}
	return qs, arch.Grid(), nil
}

// checkLive verifies a lookup answered from a live archive, whose elite
// may improve between reads: the reported cell is the one the query
// bins into, the gait's measured descriptors bin into it too, and its
// fitness is the paper's score of its genome.
func checkLive(body []byte, q query, grid repertoire.Grid) bool {
	var doc struct {
		Cell struct {
			H int `json:"h"`
			S int `json:"s"`
		} `json:"cell"`
		Genome   string `json:"genome"`
		Fitness  int    `json:"fitness"`
		Measured struct {
			Heading float64 `json:"heading"`
			Stride  float64 `json:"stride"`
		} `json:"measured"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return false
	}
	h, s, ok := grid.Bin(q.heading, q.stride)
	if !ok || h != doc.Cell.H || s != doc.Cell.S {
		return false
	}
	mh, ms, ok := grid.Bin(doc.Measured.Heading, doc.Measured.Stride)
	if !ok || mh != h || ms != s {
		return false
	}
	g, err := strconv.ParseUint(strings.TrimPrefix(doc.Genome, "0x"), 16, 64)
	if err != nil {
		return false
	}
	return fitness.New().Score(genome.Genome(g)) == doc.Fitness
}
