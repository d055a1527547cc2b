package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"time"

	"negativaml/internal/bufpool"
	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/cubin"
	"negativaml/internal/dserve"
	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// The probes are the traced run's microbenchmarks: each calls one layer's
// public functions directly, over the libraries of the workload's own rows,
// so a layer has a number of its own beside the share of op time the spans
// give it. They run after the measuring loop and touch nothing it measured.
// A probe that cannot run leaves its metrics at 0 and says why on stderr.

// stopwatch sums the time of the sections between lap calls.
type stopwatch struct {
	total time.Duration
	t0    time.Time
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) lap()   { s.total += time.Since(s.t0) }

func mbPerS(bytes int64, d time.Duration) float64 { return ratio(float64(bytes)/1e6, d.Seconds()) }

func runProbes(e *env, rows []*row) map[string]float64 {
	p := map[string]float64{}
	note := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", name, err)
		}
	}
	results, err := probeLocalCold(p, rows)
	note("dserve.local_cold_ms", err)
	probeELF(p, rows)
	if results != nil {
		probeCodecs(p, rows, results)
		note("mlruntime", probeRuntime(p, rows, results))
	}
	probePlan(p, rows)
	note("castore", probeCastore(p, e, rows[0]))
	note("cluster.rtt_us", probeRTT(p, e))
	probeBufpool(p)
	return p
}

// probeLocalCold runs each row's batch cold on a fresh in-memory service,
// three times, and reports the geometric mean of the rows' medians: the
// single-node reference the cluster workloads' op time is set against. It
// returns one result per row for the probes that need debloated images.
func probeLocalCold(p map[string]float64, rows []*row) ([]*dserve.BatchResult, error) {
	results := make([]*dserve.BatchResult, len(rows))
	var medians []float64
	for i, r := range rows {
		ws, err := r.workloads(r.in)
		if err != nil {
			return nil, err
		}
		var walls []float64
		for rep := 0; rep < 3; rep++ {
			svc := dserve.NewService(dserve.Config{MaxSteps: r.maxSteps})
			t0 := time.Now()
			res, err := svc.DebloatBatch(r.in, ws, dserve.BatchOptions{MaxSteps: r.maxSteps})
			walls = append(walls, ms(time.Since(t0)))
			svc.Close()
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		medians = append(medians, median(walls))
	}
	p["dserve.local_cold_ms"] = geomean(medians)
	return results, nil
}

// probeELF times the parsers over every library of every row: elfx.Parse,
// the analysis index built cold, fatbin.Parse over each .nv_fatbin section
// and cubin.Parse over each cubin in it.
func probeELF(p map[string]float64, rows []*row) {
	var parse, index, fat, cub stopwatch
	var libs, cubins int
	var indexBytes, fatBytes int64
	for _, r := range rows {
		for _, name := range r.in.LibNames {
			data := r.in.Library(name).Data
			parse.start()
			lib, err := elfx.Parse(name, data)
			parse.lap()
			if err != nil {
				continue
			}
			libs++

			// Index shares built indexes process-wide by content digest, so a
			// cold build needs bytes no one has indexed: a copy with a counter
			// in the e_ident padding, which no parser reads.
			cp := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(cp[12:], uint32(libs))
			if fresh, err := elfx.Parse(name, cp); err == nil {
				index.start()
				fresh.Index()
				index.lap()
				indexBytes += int64(len(cp))
			}

			fr, ok := lib.FatbinRange()
			if !ok {
				continue
			}
			fat.start()
			fb, err := fatbin.Parse(data[fr.Start:fr.End])
			fat.lap()
			if err != nil {
				continue
			}
			fatBytes += fr.Len()
			for _, payload := range fatbin.ExtractCubins(fb) {
				cub.start()
				_, err := cubin.Parse(payload)
				cub.lap()
				if err == nil {
					cubins++
				}
			}
		}
	}
	p["elfx.parse_us_per_lib"] = ratio(us(parse.total), float64(libs))
	p["elfx.index_us_per_lib"] = ratio(us(index.total), float64(libs))
	p["elfx.index_mb_per_s"] = mbPerS(indexBytes, index.total)
	p["fatbin.parse_mb_per_s"] = mbPerS(fatBytes, fat.total)
	p["cubin.parse_us"] = ratio(us(cub.total), float64(cubins))
}

// probeCodecs times the sparse-image codecs and the materializer over
// every debloated library: v1 (the disk form), v2 (the wire form), the
// transcoder between them, and the full-image copy verification clones.
// Codec rates are in encoded bytes, the materializer's in image bytes.
func probeCodecs(p map[string]float64, rows []*row, results []*dserve.BatchResult) {
	var enc, dec, wire, trans, mat stopwatch
	var encBytes, wireBytes, imageBytes int64
	var ranges int
	for _, res := range results {
		for _, lr := range res.Libs {
			sp := lr.Sparse
			enc.start()
			v1 := sp.Encode()
			enc.lap()
			encBytes += int64(len(v1))

			dec.start()
			_, err := negativa.DecodeSparseImage(sp.Lib(), v1)
			dec.lap()
			if err != nil {
				continue
			}

			wire.start()
			v2 := sp.EncodeWire()
			wire.lap()
			wireBytes += int64(len(v2))
			ranges += len(sp.ZeroedRanges())

			trans.start()
			_, err = negativa.TranscodeSparseWire(v2, 1)
			trans.lap()
			if err != nil {
				continue
			}

			buf := bufpool.Get(int(sp.Len()))
			mat.start()
			sp.MaterializeInto(buf)
			mat.lap()
			bufpool.Put(buf)
			imageBytes += sp.Len()
		}
	}
	p["negativa.sparse_encode_mb_per_s"] = mbPerS(encBytes, enc.total)
	p["negativa.sparse_decode_mb_per_s"] = mbPerS(encBytes, dec.total)
	p["negativa.wire_encode_mb_per_s"] = mbPerS(wireBytes, wire.total)
	p["negativa.wire_bytes_per_range"] = ratio(float64(wireBytes), float64(ranges))
	p["negativa.transcode_mb_per_s"] = mbPerS(wireBytes, trans.total)
	p["negativa.materialize_mb_per_s"] = mbPerS(imageBytes, mat.total)
}

// probeRuntime times mlruntime.Run per member workload: on the original
// install (what a detect run costs without the detectors) and on the
// debloated one (what a verify run costs).
func probeRuntime(p map[string]float64, rows []*row, results []*dserve.BatchResult) error {
	var detect, verify stopwatch
	var members int
	for i, r := range rows {
		ws, err := r.workloads(r.in)
		if err != nil {
			return err
		}
		clone, err := r.in.CloneWithLibs(results[i].DebloatedLibs())
		if err != nil {
			return err
		}
		for _, w := range ws {
			detect.start()
			_, err := mlruntime.Run(w, mlruntime.Options{MaxSteps: r.maxSteps})
			detect.lap()
			if err != nil {
				return err
			}
			w.Install = clone
			verify.start()
			_, err = mlruntime.Run(w, mlruntime.Options{MaxSteps: r.maxSteps})
			verify.lap()
			if err != nil {
				return err
			}
			members++
		}
	}
	p["mlruntime.detect_run_ms"] = ratio(ms(detect.total), float64(members))
	p["mlruntime.verify_run_ms"] = ratio(ms(verify.total), float64(members))
	return nil
}

// probePlan schedules a graph of each row's shape whose nodes do nothing,
// with no memo: what is left is plan's own cost per node.
func probePlan(p map[string]float64, rows []*row) {
	noop := func([]any) (any, error) { return nil, nil }
	pool := plan.NewPool(runtime.NumCPU())
	var sw stopwatch
	var nodes int
	for _, r := range rows {
		for rep := 0; rep < 5; rep++ {
			g := plan.New()
			detects := make([]*plan.Node, len(r.specs))
			for i := range detects {
				detects[i] = g.Node(negativa.StageDetect, nil, nil, noop)
			}
			union := g.Node("union", detects, nil, noop)
			compacts := make([]*plan.Node, len(r.in.LibNames))
			for i := range compacts {
				idx := g.Node(negativa.StageLibIndex, nil, nil, noop)
				loc := g.Node(negativa.StageLocate, []*plan.Node{union, idx}, nil, noop)
				compacts[i] = g.Node(negativa.StageCompact, []*plan.Node{union, loc}, nil, noop)
			}
			clone := g.Node("clone", compacts, nil, noop)
			for range r.specs {
				g.Node(negativa.StageVerifyRun, []*plan.Node{clone}, nil, noop)
			}
			sw.start()
			err := g.ExecuteWith(pool, nil, nil, plan.ExecOptions{})
			sw.lap()
			if err == nil {
				nodes += g.Len()
			}
		}
	}
	p["plan.noop_dag_us_per_node"] = ratio(us(sw.total), float64(nodes))
}

// probeCastore times the store's primitives on a store under the data
// root. Put defers its fsyncs to SyncDirs, so the two are timed apart; on
// tmpfs neither pays a device.
func probeCastore(p map[string]float64, e *env, r *row) error {
	dir, err := os.MkdirTemp(e.dataRoot, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := castore.Open(dir+"/a", castore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()

	payload := func(n, salt int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*31 + salt)
		}
		return b
	}
	put := func(kind string, size, count int) (time.Duration, error) {
		var sw stopwatch
		for i := 0; i < count; i++ {
			b := payload(size, i)
			sw.start()
			err := st.Put(kind, fmt.Sprintf("%02x-probe", i), b)
			sw.lap()
			if err != nil {
				return 0, err
			}
		}
		return sw.total / time.Duration(count), nil
	}
	const n64k, n1m = 32, 16
	d, err := put("p64k", 64<<10, n64k)
	if err != nil {
		return err
	}
	p["castore.put_us_64k"] = us(d)
	if d, err = put("p1m", 1<<20, n1m); err != nil {
		return err
	}
	p["castore.put_us_1m"] = us(d)
	t0 := time.Now()
	st.SyncDirs()
	p["castore.sync_dirs_us"] = us(time.Since(t0))

	var get, mapped, xfer stopwatch
	other, err := castore.Open(dir+"/b", castore.Options{})
	if err != nil {
		return err
	}
	defer other.Close()
	var moved int64
	var buf bytes.Buffer
	for i := 0; i < n1m; i++ {
		key := fmt.Sprintf("%02x-probe", i)
		get.start()
		_, ok := st.Get("p1m", key)
		get.lap()
		if !ok {
			return fmt.Errorf("get p1m/%s: missing", key)
		}
		mapped.start()
		m, ok := st.OpenMapped("p1m", key)
		if ok {
			m.Close()
		}
		mapped.lap()
		buf.Reset()
		xfer.start()
		_, err := st.Export("p1m", key, &buf)
		if err == nil {
			_, err = other.Import("p1m", key, &buf)
		}
		xfer.lap()
		if err != nil {
			return err
		}
		moved += 1 << 20
	}
	p["castore.get_us_1m"] = us(get.total) / n1m
	p["castore.open_mapped_us_1m"] = us(mapped.total) / n1m
	p["castore.export_import_mb_per_s"] = mbPerS(moved, xfer.total)

	// Reopening a store that holds one row's objects: Open rebuilds the
	// index from the directory tree.
	filled, err := castore.Open(dir+"/c", castore.Options{})
	if err != nil {
		return err
	}
	svc := dserve.NewService(dserve.Config{MaxSteps: r.maxSteps, Store: filled})
	ws, err := r.workloads(r.in)
	if err == nil {
		_, err = svc.DebloatBatch(r.in, ws, dserve.BatchOptions{MaxSteps: r.maxSteps})
	}
	svc.Close()
	objects := filled.Stats().Objects
	filled.Close()
	if err != nil {
		return err
	}
	t0 = time.Now()
	reopened, err := castore.Open(dir+"/c", castore.Options{})
	open := time.Since(t0)
	if err != nil {
		return err
	}
	reopened.Close()
	p["castore.open_us_per_object"] = ratio(us(open), float64(objects))
	return nil
}

// probeRTT is the loopback round trip of the peer transport: PostJSON to
// the ping route of a neighbour on a fresh ring.
func probeRTT(p map[string]float64, e *env) error {
	rg, err := newRing(e.dataRoot, false)
	if err != nil {
		return err
	}
	defer rg.stop()
	c := rg.nodes[0].svc.Cluster()
	var rtts []float64
	for i := 0; i < 60; i++ {
		var resp cluster.HeartbeatResponse
		t0 := time.Now()
		if err := c.PostJSON("b", cluster.PingPath, cluster.HeartbeatRequest{From: "a"}, &resp); err != nil {
			return err
		}
		if i >= 10 { // the first calls dial and warm the connection pool
			rtts = append(rtts, us(time.Since(t0)))
		}
	}
	p["cluster.rtt_us"] = median(rtts)
	return nil
}

// probeBufpool is one Get/Put pair of a 64 KiB scratch buffer.
func probeBufpool(p map[string]float64) {
	const n = 200000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		bufpool.Put(bufpool.Get(64 << 10))
	}
	p["bufpool.get_put_ns"] = float64(time.Since(t0)) / n
}
