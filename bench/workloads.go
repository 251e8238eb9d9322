package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"flint/internal/exec"
	"flint/internal/rdd"
	"flint/internal/workload"
)

// A workload is one set of inputs the benchmark runs. Its set-up
// (prepare) generates every input from the seed; run then executes it
// on any workload.Runner — the engine for a sample, the CollectLocal
// oracle for the reference — and returns its outcome as a deferred
// canonical string (built after the sample's clock stops) whose FNV the
// two must share.
type workloadDef struct {
	name    string
	prepare func(seed int64, small bool) *prepared
}

// prepared is a workload with its inputs generated: everything a sample
// needs besides a fresh testbed.
type prepared struct {
	// rows is the workload's input-row constant, the numerator of
	// rows_per_s: the rows the sample's jobs read from their sources at
	// this size, whatever the seed.
	rows int64
	// fn runs the workload on a fresh serverless backend instead of VMs.
	fn bool
	// mttf > 0 installs a ckpt.Manager with this MTTF (virtual seconds).
	mttf float64
	// revokeAt > 0 revokes revokeK nodes (with replacement) at that
	// virtual instant.
	revokeAt float64
	revokeK  int
	run      func(run workload.Runner, ctx *rdd.Context) (outcome func() string, virtualS float64, err error)
}

// Every workload runs on the paper's testbed shape.
const (
	benchNodes = 10
	benchSlots = 2
	benchParts = benchNodes * benchSlots
)

// workloads are the five the benchmark runs, in the order BENCHMARK.json
// declares them (with the one-line reason for each; bench/README.md has
// the long form).
var workloads = []workloadDef{
	{"scan", prepareScan},
	{"wordcount", prepareWordCount},
	{"pagerank_revoke", preparePageRank},
	{"kmeans_ckpt", prepareKMeans},
	{"tpch_fn", prepareTPCH},
}

func ftoa17(x float64) string { return strconv.FormatFloat(x, 'g', 17, 64) }

// scanRec is the intermediate row of the scan pipeline.
type scanRec struct {
	K int
	V float64
}

// scanPasses is how many jobs one scan sample runs over the same source:
// three passes make a 1 s sample out of an 8.4 M-row-pass workload
// while the pre-generated input stays at 2.8 M rows (~70 MB).
const scanPasses = 3

// prepareScan pre-generates the source partitions so a sample measures
// the engine moving rows through closures, not a generator.
func prepareScan(seed int64, small bool) *prepared {
	perPart := 140_000
	if small {
		perPart = 2_000
	}
	parts := make([][]rdd.Row, benchParts)
	for p := range parts {
		rng := rand.New(rand.NewSource(seed + int64(p)*1_000_003))
		rows := make([]rdd.Row, perPart)
		for i := range rows {
			rows[i] = rng.Float64()
		}
		parts[p] = rows
	}
	return &prepared{
		rows: scanPasses * int64(perPart) * benchParts,
		run: func(run workload.Runner, ctx *rdd.Context) (func() string, float64, error) {
			src := ctx.Parallelize("scan:src", benchParts, 64, func(part int) []rdd.Row { return parts[part] })
			var sums []rdd.Row
			virtualS := 0.0
			for pass := 0; pass < scanPasses; pass++ {
				drop := 3 + pass // each pass filters out every drop-th key
				job := src.
					Map("scan:rec", func(r rdd.Row) rdd.Row {
						x := r.(float64)
						return scanRec{K: int(x * 1024), V: x}
					}).
					Filter("scan:keep", func(r rdd.Row) bool { return r.(scanRec).K%drop != 0 }).
					Map("scan:val", func(r rdd.Row) rdd.Row {
						rec := r.(scanRec)
						return rec.V * float64(rec.K)
					}).
					MapPartitions("scan:sum", func(part int, rows []rdd.Row) []rdd.Row {
						s := 0.0
						for _, r := range rows {
							s += r.(float64)
						}
						return []rdd.Row{rdd.KV{K: part, V: s}}
					})
				res, err := run.RunJob(job, exec.ActionCollect)
				if err != nil {
					return nil, 0, err
				}
				sums = append(sums, res.Rows...)
				virtualS += res.Latency()
			}
			return func() string {
				var b strings.Builder
				for _, r := range sums {
					kv := r.(rdd.KV)
					fmt.Fprintf(&b, "%d=%s;", kv.K.(int), ftoa17(kv.V.(float64)))
				}
				return b.String()
			}, virtualS, nil
		},
	}
}

// prepareWordCount pre-generates documents over a seeded Zipf
// vocabulary; words are boxed once here so the FlatMap closure only
// builds KVs and the keyed kernels, scatter and concat dominate.
func prepareWordCount(seed int64, small bool) *prepared {
	docsN, wordsPerDoc, vocabN := 31_000, 100, 50_000
	if small {
		docsN, vocabN = 400, 2_000
	}
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]rdd.Row, vocabN)
	for i := range vocab {
		vocab[i] = "w" + strconv.FormatInt(int64(i), 36) + "-" + strconv.FormatInt(rng.Int63n(1<<20), 36)
	}
	zipf := rand.NewZipf(rng, 1.1, 4, uint64(vocabN-1))
	parts := make([][]rdd.Row, benchParts)
	for d := 0; d < docsN; d++ {
		doc := make([]rdd.Row, wordsPerDoc)
		for i := range doc {
			doc[i] = vocab[zipf.Uint64()]
		}
		parts[d%benchParts] = append(parts[d%benchParts], doc)
	}
	return &prepared{
		rows: int64(docsN) * int64(wordsPerDoc),
		run: func(run workload.Runner, ctx *rdd.Context) (func() string, float64, error) {
			counts := ctx.Parallelize("wc:docs", benchParts, 100*8, func(part int) []rdd.Row { return parts[part] }).
				FlatMap("wc:words", func(r rdd.Row) []rdd.Row {
					doc := r.([]rdd.Row)
					out := make([]rdd.Row, len(doc))
					for i, w := range doc {
						out[i] = rdd.KV{K: w, V: 1}
					}
					return out
				}).
				WithRowBytes(8).
				ReduceByKeyInt("wc:counts", benchParts, func(a, b int) int { return a + b })
			res, err := run.RunJob(counts, exec.ActionCollect)
			if err != nil {
				return nil, 0, err
			}
			return func() string {
				lines := make([]string, len(res.Rows))
				for i, r := range res.Rows {
					kv := r.(rdd.KV)
					lines[i] = kv.K.(string) + "=" + strconv.Itoa(kv.V.(int))
				}
				sort.Strings(lines)
				return strings.Join(lines, ";")
			}, res.Latency(), nil
		},
	}
}

// preparePageRank sizes the paper's shuffle-heavy job — int-key Join and
// ReduceByKeyFloat64 over a cached link table, a lineage one iteration
// deeper each round — and loses two nodes early, so killed tasks, fetch
// failures and lineage recomputation all run. Its wall belongs to the
// exec scheduler, not to the data plane.
func preparePageRank(seed int64, small bool) *prepared {
	cfg := workload.PageRankConfig{
		Vertices: 9_000, AvgDegree: 8, Parts: benchParts, Iterations: 16,
		TargetBytes: 2 << 30, Weight: 2.2, Seed: seed,
	}
	if small {
		cfg.Vertices = 500
	}
	return &prepared{
		// Nominal edge-iterations. The generator's out-degrees are
		// heavy-tailed, so the real edge count — and with it every per-row
		// and virtual-clock number of this workload — swings about ±2 %
		// from seed to seed; the metric bounds allow for it.
		rows:     int64(cfg.Vertices) * int64(cfg.AvgDegree) * int64(cfg.Iterations),
		revokeAt: 30, revokeK: 2,
		run: func(run workload.Runner, ctx *rdd.Context) (func() string, float64, error) {
			rep, err := workload.RunPageRank(run, ctx, cfg)
			if err != nil {
				return nil, 0, err
			}
			return func() string {
				ranks := rep.Outcome.(map[int]float64)
				ids := make([]int, 0, len(ranks))
				for v := range ranks {
					ids = append(ids, v)
				}
				sort.Ints(ids)
				var b strings.Builder
				for _, v := range ids {
					b.WriteString(strconv.Itoa(v))
					b.WriteByte('=')
					b.WriteString(ftoa17(ranks[v]))
					b.WriteByte(';')
				}
				return b.String()
			}, rep.RunningTime, nil
		},
	}
}

// prepareKMeans sizes RunKMeans as many small tasks. K = 9 against 100
// partitions puts one point of every cluster among the first K of
// partition 0, which RunKMeans takes as initial centroids: Lloyd's
// iteration then settles at once, every partition combines to exactly K
// rows, and the schedule — task, checkpoint and event counts — is the
// same for every seed instead of following each seed's convergence path.
// The seed still reaches the virtual clock through the dataset size,
// which it perturbs by under 0.1 %.
func prepareKMeans(seed int64, small bool) *prepared {
	cfg := workload.KMeansConfig{
		Points: 16_000, Dims: 8, K: 9, Parts: 100, Iterations: 40,
		TargetBytes: 16<<30 + 16_000*(seed%997), Weight: 8, Seed: seed,
	}
	// A quarter of the calm (revocation-free) makespan of ~5450 s.
	revokeAt := 1360.0
	if small {
		cfg.Points, cfg.Parts, cfg.Iterations = 1_000, 20, 6
		revokeAt = 300
	}
	return &prepared{
		rows:     int64(cfg.Points) * int64(cfg.Iterations+1),
		mttf:     2 * 3600,
		revokeAt: revokeAt, revokeK: 2,
		run: func(run workload.Runner, ctx *rdd.Context) (func() string, float64, error) {
			rep, err := workload.RunKMeans(run, ctx, cfg)
			if err != nil {
				return nil, 0, err
			}
			return func() string {
				out := rep.Outcome.(workload.KMeansResult)
				var b strings.Builder
				fmt.Fprintf(&b, "cost=%s moved=%s", ftoa17(out.Cost), ftoa17(out.Moved))
				for _, c := range out.Centroids {
					for _, x := range c {
						b.WriteByte(' ')
						b.WriteString(ftoa17(x))
					}
				}
				return b.String()
			}, rep.RunningTime, nil
		},
	}
}

const tpchRounds = 6

// tpchSegments are the market segments workload.BuildTPCH deals out.
var tpchSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

// prepareTPCH sizes the paper's batch-interactive session (Fig 9) for
// the function backend: the tables are loaded once and externalised
// through dfs, then six rounds of Q1 (struct keys, boxed struct values:
// the generic kernels), Q3 (two int-key joins) and Q6 (selective scan)
// read them back instead of regenerating.
func prepareTPCH(seed int64, small bool) *prepared {
	cfg := workload.TPCHConfig{
		Customers: 6_000, OrdersPerCust: 8, LinesPerOrder: 4, Parts: benchParts,
		TargetBytes: 10 << 30, Weight: 20, Seed: seed,
	}
	if small {
		cfg.Customers = 200
	}
	orders := int64(cfg.Customers) * int64(cfg.OrdersPerCust)
	lines := orders * int64(cfg.LinesPerOrder)
	tables := int64(cfg.Customers) + orders + lines
	return &prepared{
		// One load plus, per round, Q1 and Q6 scanning lineitem and Q3
		// scanning all three tables.
		rows: tables + tpchRounds*(2*lines+tables),
		fn:   true,
		run: func(run workload.Runner, ctx *rdd.Context) (func() string, float64, error) {
			tp := workload.BuildTPCH(ctx, cfg)
			virtualS, err := tp.Load(run)
			if err != nil {
				return nil, 0, err
			}
			var b strings.Builder
			for i := 0; i < tpchRounds; i++ {
				// Each round asks a different question; the seed varies the
				// data, not the selectivities.
				q1, res, err := tp.Q1(run, i, 2200+50*i)
				if err != nil {
					return nil, 0, err
				}
				virtualS += res.Latency()
				for _, r := range q1 {
					fmt.Fprintf(&b, "q1 %c%c %s %s %s %s %d;", r.Flag, r.Status,
						ftoa17(r.SumQty), ftoa17(r.SumBase), ftoa17(r.SumDiscounted), ftoa17(r.SumCharge), r.Count)
				}
				q3, res, err := tp.Q3(run, i, tpchSegments[i%len(tpchSegments)], 1000+90*i)
				if err != nil {
					return nil, 0, err
				}
				virtualS += res.Latency()
				for _, r := range q3 {
					fmt.Fprintf(&b, "q3 %d %s %d %d;", r.OrderKey, ftoa17(r.Revenue), r.OrderDate, r.ShipPriority)
				}
				q6, res, err := tp.Q6(run, i, 300*i, 300*i+365, 0.02+0.01*float64(i%5), 0.04+0.01*float64(i%5), 25)
				if err != nil {
					return nil, 0, err
				}
				virtualS += res.Latency()
				fmt.Fprintf(&b, "q6 %s;", ftoa17(q6))
			}
			// A few dozen result rows: formatting them inline costs nothing
			// next to the 19 jobs.
			return b.String, virtualS, nil
		},
	}
}
