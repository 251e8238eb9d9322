package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"flint/internal/ckpt"
	"flint/internal/exec"
	"flint/internal/obs"
	"flint/internal/rdd"
	"flint/internal/serverless"
	"flint/internal/workload"
)

// wallClock is the benchmark's one wall-clock timeline, in seconds since
// process start, read through the sanctioned obs.Stopwatch chokepoint.
// Sample walls, set-up times and every span share it.
var wallClock = obs.Stopwatch()

// ringCapacity bounds each sample's event ring: above the ~30k events of
// the busiest workload (kmeans_ckpt), so obs.dropped stays 0 and the
// trace FNV covers the whole run.
const ringCapacity = 1 << 16

// bed is one sample's fresh deployment.
type bed struct {
	tb  *exec.Testbed
	ctx *rdd.Context
	obs *obs.Obs
	ftm *ckpt.Manager       // nil unless the workload checkpoints
	fn  *serverless.Backend // nil on the VM backend
}

func newBed(p *prepared, workers int) (*bed, error) {
	b := &bed{obs: obs.New(obs.Options{RingCapacity: ringCapacity})}
	opts := exec.TestbedOpts{Nodes: benchNodes, Slots: benchSlots, Workers: workers, Obs: b.obs}
	if p.fn {
		b.fn = serverless.New(serverless.Config{})
		opts.Backend = b.fn
	}
	tb, err := exec.NewTestbed(opts)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	b.tb = tb
	b.ctx = rdd.NewContext(benchParts)
	if p.mttf > 0 {
		m, err := ckpt.NewManager(tb.Clock, tb.Store, ckpt.Config{
			MTTF:         func(float64) float64 { return p.mttf },
			Nodes:        func() int { return benchNodes },
			NodeMemBytes: tb.Cluster.Config().NodeMemBytes,
			GC:           true,
			Ctx:          b.ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("checkpoint manager: %w", err)
		}
		m.SetObs(b.obs)
		tb.Engine.SetPolicy(m)
		b.ftm = m
	}
	if p.revokeAt > 0 {
		tb.RevokeNodes(p.revokeAt, p.revokeK, true)
	}
	return b, nil
}

// costUSD is the dollars the run accrued: VM leases or function
// invocations, plus checkpoint/external-state storage.
func (b *bed) costUSD() float64 {
	storage := b.tb.Store.UsageAt(b.tb.Clock.Now()).StorageCost
	if b.fn != nil {
		return b.fn.AccruedCost() + storage
	}
	return b.tb.Cluster.Cost() + storage
}

// fingerprint is what every sample of a workload must share, whatever
// its worker width and whether or not it was traced: the virtual clock's
// verdict, the canonical outcome, and the full event stream.
type fingerprint struct {
	VirtualS   float64
	CostUSD    float64
	OutcomeFNV uint64
	TraceFNV   uint64
	Events     uint64
}

// sample is one whole timed execution of a workload on a fresh bed.
type sample struct {
	wall       float64 // testbed construction to last job's result, seconds
	mallocs    uint64
	allocBytes uint64
	retained   float64 // bytes the run leaves reachable from the bed
	fp         fingerprint
	layers     map[string]float64 // count-type layer metrics read off the bed
	err        error
}

// runSample executes p once. workers is both the engine's pool width and
// the caller's GOMAXPROCS; tr, when non-nil, wraps the lineage closures
// and drives the clock itself (the traced phase).
func runSample(p *prepared, workers int, tr *tracer) sample {
	var before, after, settled runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	root := tr.begin(spanSample)
	start := wallClock()
	build := tr.begin(spanBuild)
	b, err := newBed(p, workers)
	tr.end(build)
	if err != nil {
		return sample{err: err}
	}
	var runner workload.Runner = b.tb.Engine
	if tr != nil {
		runner = &stepRunner{bed: b, tr: tr}
	}
	driver := tr.begin(spanDriver)
	outcome, virtualS, err := p.run(runner, b.ctx)
	tr.end(driver)
	wall := wallClock() - start
	tr.end(root)
	if err != nil {
		return sample{err: err}
	}
	runtime.ReadMemStats(&after)
	// Retained heap: what stays reachable from the bed (cache, shuffle
	// outputs, store objects, event ring) once the garbage is gone.
	runtime.GC()
	runtime.ReadMemStats(&settled)
	s := sample{
		wall:       wall,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		retained:   math.Max(0, float64(settled.HeapAlloc)-float64(before.HeapAlloc)),
		layers:     make(map[string]float64),
	}
	events := b.obs.Tracer.Events()
	s.fp = fingerprint{
		VirtualS:   virtualS,
		CostUSD:    b.costUSD(),
		OutcomeFNV: fnvString(outcome()),
		TraceFNV:   fnvEvents(events),
		Events:     b.obs.Tracer.Total(),
	}
	b.readLayers(s.layers)
	runtime.KeepAlive(b)
	return s
}

// readLayers copies the count-type layer metrics the bed's public
// counters expose. Everything here lives on the virtual clock or is a
// plain count, so it repeats exactly — except the flint_exec_ wall
// histograms (exec.rounds is a count; round wall and worker busy are
// real seconds).
func (b *bed) readLayers(m map[string]float64) {
	o := b.obs
	snap := b.tb.Engine.Snapshot()
	m["exec.tasks"] = float64(snap.TasksLaunched)
	m["exec.tasks_killed"] = float64(snap.TasksKilled)
	m["exec.recomputed_parts"] = float64(o.Recomputed.Value())
	m["exec.cache_hits"] = float64(o.CacheHits.Value())
	m["exec.cache_misses"] = float64(o.CacheMisses.Value())
	m["exec.cache_hit_ratio"] = ratio(float64(o.CacheHits.Value()), float64(o.CacheHits.Value()+o.CacheMisses.Value()))
	m["exec.evict_to_disk"] = float64(o.EvictToDisk.Value())
	m["exec.shuffle_remote_bytes"] = float64(o.ShuffleRemote.Value())
	m["exec.shuffle_local_bytes"] = float64(o.ShuffleLocal.Value())
	m["exec.job_latency_p50_s"] = o.JobDur.Quantile(0.5)
	m["exec.rounds"] = float64(o.ExecRoundWall.Count())
	m["exec.round_wall_s"] = o.ExecRoundWall.Sum()
	m["exec.worker_busy_s"] = o.WorkerBusy.Sum()

	m["obs.trace_events"] = float64(o.Tracer.Total())
	m["obs.dropped"] = float64(o.Tracer.Dropped())

	u := b.tb.Store.UsageAt(b.tb.Clock.Now())
	m["dfs.puts"] = float64(u.Puts)
	m["dfs.gets"] = float64(u.Gets)
	m["dfs.bytes_written"] = float64(u.BytesWritten)
	m["dfs.bytes_read"] = float64(u.BytesRead)
	m["dfs.peak_bytes"] = float64(u.PeakBytes)

	m["ckpt.tasks"] = float64(snap.CheckpointTasks)
	m["ckpt.bytes"] = float64(snap.CheckpointBytes)
	m["ckpt.tax_frac"] = ratio(snap.CkptSeconds, snap.CkptSeconds+snap.ComputeSeconds)
	m["ckpt.marks"], m["ckpt.gc_removed"], m["ckpt.reads"], m["ckpt.tau_s"], m["ckpt.delta_s"] = 0, 0, 0, 0, 0
	if b.ftm != nil {
		m["ckpt.marks"] = float64(b.ftm.MarkEvents)
		m["ckpt.gc_removed"] = float64(b.ftm.GCRemoved)
		// On the VM backend the only store readers are checkpoint
		// restores, so the store's read count is the restore count.
		m["ckpt.reads"] = float64(u.Gets)
		m["ckpt.tau_s"] = b.ftm.Tau()
		m["ckpt.delta_s"] = b.ftm.Delta()
	}

	m["cluster.revocations"] = float64(snap.Revocations)
	m["cluster.nodes_joined"] = float64(snap.NodesJoined)
	m["cluster.recovery_p50_s"] = o.RecoveryTime.Quantile(0.5)

	var st serverless.Stats
	if b.fn != nil {
		st = b.fn.Stats()
	}
	m["serverless.invocations"] = float64(st.Invocations)
	m["serverless.cold_starts"] = float64(st.ColdStarts)
	m["serverless.cold_start_ratio"] = ratio(float64(st.ColdStarts), float64(st.ColdStarts+st.WarmStarts))
	m["serverless.gb_seconds"] = st.GBSeconds
	m["serverless.ext_read_bytes"] = float64(o.FnExtReadBytes.Value())
	m["serverless.ext_write_bytes"] = float64(o.FnExtWriteBytes.Value())
}

// ratio is a/b, or 0 when the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// fnvEvents hashes every field of every event in ring order, so any
// reordering or value drift between samples changes the sum.
func fnvEvents(events []obs.Event) uint64 {
	h := fnv.New64a()
	var buf [8 * 12]byte
	for i := range events {
		ev := &events[i]
		le := binary.LittleEndian
		le.PutUint64(buf[0:], uint64(ev.Type))
		le.PutUint64(buf[8:], math.Float64bits(ev.Time))
		le.PutUint64(buf[16:], math.Float64bits(ev.Dur))
		le.PutUint64(buf[24:], uint64(ev.Job))
		le.PutUint64(buf[32:], uint64(ev.Stage))
		le.PutUint64(buf[40:], uint64(ev.Task))
		le.PutUint64(buf[48:], uint64(ev.Node))
		le.PutUint64(buf[56:], uint64(ev.RDD))
		le.PutUint64(buf[64:], uint64(ev.Part))
		le.PutUint64(buf[72:], uint64(ev.Bytes))
		le.PutUint64(buf[80:], uint64(ev.Bits))
		le.PutUint64(buf[88:], math.Float64bits(ev.Price))
		h.Write(buf[:])
		h.Write([]byte(ev.Pool))
	}
	return h.Sum64()
}
