package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/slurm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Every workload draws from the same paper-shaped generator at one
// population size: large enough that the paper-shaped queue stays at 1-2
// jobs (smaller populations run on too few nodes to keep it short), small
// enough that two replications fit the run comfortably. Ingest bodies hold
// 1000 jobs, the batch size the ingest-path costs this benchmark tracks were
// first measured at (100k jobs in 1000-job batches).
const (
	paperJobs = 74820 // the paper's full population
	popJobs   = 20000 // jobs per replication
	batchJobs = 1000  // jobs per ingest request body
	workers   = 2     // engine workers and client connections, = nproc
)

func popFactor() float64 { return float64(popJobs) / paperJobs }

// genConfig is the generator configuration shared by every workload.
func genConfig() workload.Config {
	g := workload.ScaledConfig(popFactor())
	g.TotalJobs = popJobs
	return g
}

// paperMonitor is simcloud's default monitoring: GPU sampling every 30
// simulated seconds.
func paperMonitor() monitor.Config {
	mc := monitor.DefaultConfig()
	mc.GPUIntervalSec = 30
	return mc
}

// paperSim is simcloud's default scheduler set-up for the population: the
// 224-node machine scaled with the workload, co-location on, monitoring on.
func paperSim() slurm.Config {
	s := slurm.DefaultConfig()
	s.Cluster.Nodes = max(4, int(float64(s.Cluster.Nodes)*popFactor()))
	s.Policy.Colocate = true
	mc := paperMonitor()
	s.Monitor = &mc
	return s
}

// contendedSim is BenchmarkSchedule's shape: half the scaled nodes and no
// monitoring (arrivals are compressed 4x by the caller).
func contendedSim() slurm.Config {
	s := slurm.DefaultConfig()
	s.Cluster.Nodes = max(2, int(float64(s.Cluster.Nodes)*popFactor()/2+0.5))
	return s
}

// batch is one ingest request: the jobs and their encoded body.
type batch struct {
	ds   *trace.Dataset
	body []byte
}

// serverInputs is everything a server workload sends, generated from the
// seed before anything is timed. The server receives only these bytes.
type serverInputs struct {
	cfg    trace.SegConfig
	seed   []batch // ingested into the data dir before the server starts
	snapAt int     // the data dir's snapshot covers seed[:snapAt]; the rest is WAL suffix
	pool   []batch // sent during the run, each body at most once per data dir
	reps   int     // replications the bodies were cut from
	hash   string  // SHA-256 over every body, in order
}

// seedBatches bodies seed the data dir: the first of them in its snapshot,
// the rest in the WAL suffix recovery replays.
const seedBatches = 10

// generateServerInputs simulates enough replications of the paper
// population (monitoring off: per-GPU digests come from the profiles) for
// the seed batches plus `sends` distinct bodies, through engine.RunStreamTo,
// the path simcloud uses to stream replications to simcloudd, and cuts them
// into request bodies. No body is sent twice to one data dir, as a caller
// naming batches by their content (durable/client.BatchID) could not do.
// The returned fingerprint is the replications' merged engine summary.
func generateServerInputs(ctx context.Context, seed uint64, sends int) (*serverInputs, string, error) {
	sim := paperSim()
	sim.Monitor = nil
	exp := engine.Experiment{Gen: genConfig(), Sim: sim}
	reps := ((seedBatches+sends)*batchJobs + popJobs - 1) / popJobs
	var sink collectSink
	b, err := engine.RunStreamTo(ctx, engine.Config{RootSeed: seed, Reps: reps, Workers: workers}, &sink, exp.DatasetReplicator())
	if err != nil {
		return nil, "", err
	}
	if err := b.FirstErr(); err != nil {
		return nil, "", err
	}
	in := &serverInputs{cfg: serverSegConfig(exp.Gen.DurationDays), reps: reps}
	h := sha256.New()
	var all []batch
	for _, ds := range sink.sets {
		bs, err := cutBatches(ds)
		if err != nil {
			return nil, "", err
		}
		for _, bt := range bs {
			h.Write(bt.body)
		}
		all = append(all, bs...)
	}
	if len(all) < seedBatches+sends {
		return nil, "", fmt.Errorf("%d replications gave %d bodies, want %d", reps, len(all), seedBatches+sends)
	}
	in.seed, in.pool = all[:seedBatches], all[seedBatches:]
	in.snapAt = 1
	in.hash = hex.EncodeToString(h.Sum(nil))
	return in, b.Merged.Fingerprint(), nil
}

// collectSink keeps each replication's (namespaced) dataset in order.
type collectSink struct{ sets []*trace.Dataset }

func (s *collectSink) AppendStreamDataset(ds *trace.Dataset) error {
	s.sets = append(s.sets, ds)
	return nil
}

// cutBatches splits a dataset into batchJobs-job request bodies in the
// ingest format (trace.Dataset JSON).
func cutBatches(ds *trace.Dataset) ([]batch, error) {
	var out []batch
	for lo := 0; lo < len(ds.Jobs); lo += batchJobs {
		hi := min(lo+batchJobs, len(ds.Jobs))
		part := &trace.Dataset{Jobs: ds.Jobs[lo:hi], Series: map[int64]*trace.TimeSeries{}, DurationDays: ds.DurationDays}
		for _, j := range part.Jobs {
			if ts := ds.Series[j.JobID]; ts != nil {
				part.Series[j.JobID] = ts
			}
		}
		var buf bytes.Buffer
		if err := part.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("encoding batch: %w", err)
		}
		out = append(out, batch{ds: part, body: buf.Bytes()})
	}
	return out, nil
}

// hashSpecs writes every generated spec, profiles included, into h.
func hashSpecs(h hash.Hash, specs []workload.JobSpec) {
	for i := range specs {
		sp := specs[i]
		profiles := sp.Profiles
		sp.Profiles = nil
		fmt.Fprintf(h, "%+v\n", sp)
		for _, p := range profiles {
			fmt.Fprintf(h, "%+v\n", *p)
		}
	}
}

// specsHash generates replication rep's specs for a sim workload and hashes
// them: the value the sim workloads print so two runs can be compared.
func (sh *simShape) specsHash(seed uint64) (string, error) {
	specs, err := sh.generate(seed)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	hashSpecs(h, specs)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// generate builds one replication's specs, compressing arrivals when the
// shape asks for it.
func (sh *simShape) generate(seed uint64) ([]workload.JobSpec, error) {
	gcfg := sh.gen
	gcfg.Seed = seed
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		return nil, err
	}
	specs := gen.GenerateSpecs()
	if sh.compress != 1 {
		for i := range specs {
			specs[i].SubmitSec *= sh.compress
		}
	}
	return specs, nil
}
