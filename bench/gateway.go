package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"negativaml/internal/dserve"
	"negativaml/internal/gateway"
)

// The open loop's shape: 15 bursts a second at exponential gaps, 4
// back-to-back submits a burst — three distinct requests and a repeat of
// one of them, so every burst puts a duplicate in flight for the gateway to
// coalesce — 60 submits a second in all.
const (
	burstsPerSecond = 15
	burstSize       = 4
	// maxLagP90 is how late the generator may run against its schedule
	// (90th percentile) before the run stops describing the system and
	// starts describing the generator.
	maxLagP90 = 5 * time.Millisecond
	// calibGuard is how far off the next arrival must be for the calibrator
	// to take a reading in the gap; minPhaseReadings is what a run's unit
	// needs at the least.
	calibGuard       = 3 * time.Millisecond
	minPhaseReadings = 20
)

// gwTenants are the three tenants: one per lane plus one on the default
// lane, with no quotas, so nothing should shed.
var gwTenants = []gateway.TenantConfig{
	{Name: "interactive", Keys: []string{"bench-interactive"}, Lane: gateway.LaneInteractive},
	{Name: "bulk", Keys: []string{"bench-bulk"}, Lane: gateway.LaneBulk},
	{Name: "default", Keys: []string{"bench-default"}},
}

// arrival is one scheduled submit.
type arrival struct {
	due    time.Duration // offset from the start of the phase
	row    int
	tenant int
}

// arrivalSchedule draws the whole phase's submits from the seed. The draw
// is stratified, because a 15 s phase holds only 225 bursts and the latency
// of a submit depends mostly on what else is in its burst: every seed gets
// the same multiset of exponential gaps (the distribution's quantiles), the
// same burst shape (three distinct rows, then one of them again), the same
// number of submits per tenant and of first sightings per row — and a
// different order of each. Arrivals are as bursty as a Poisson stream of
// bursts, but the offered load, the request mix and the share of duplicates
// do not vary from seed to seed, so neither do the metrics that follow them.
func arrivalSchedule(seed int64, seconds float64, rows, tenants int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	bursts := max(int(burstsPerSecond*seconds), 1)
	gaps := make([]float64, bursts)
	for i := range gaps {
		gaps[i] = -math.Log(1-(float64(i)+0.5)/float64(bursts)) / burstsPerSecond
	}
	rng.Shuffle(bursts, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	tenant := make([]int, bursts*burstSize)
	for i := range tenant {
		tenant[i] = i % tenants
	}
	rng.Shuffle(len(tenant), func(i, j int) { tenant[i], tenant[j] = tenant[j], tenant[i] })

	// deal hands out rows from seeded permutations, one permutation after
	// another, so rows are seen equally often and a burst's first three are
	// distinct whenever the row count is a multiple of three.
	var deck []int
	deal := func() int {
		if len(deck) == 0 {
			deck = rng.Perm(rows)
		}
		r := deck[0]
		deck = deck[1:]
		return r
	}
	out := make([]arrival, 0, bursts*burstSize)
	var t float64
	for b, g := range gaps {
		t += g
		var burst [burstSize]int
		for i := 0; i < burstSize-1; i++ {
			burst[i] = deal()
		}
		burst[burstSize-1] = burst[b%(burstSize-1)]
		for _, r := range burst {
			out = append(out, arrival{due: time.Duration(t * float64(time.Second)), row: r, tenant: tenant[len(out)]})
		}
	}
	return out
}

// spinners are the keep-awake children: one busy process per CPU, each this
// program re-executed as a spinner, which drops itself to the lowest
// priority.
type spinners []*exec.Cmd

// keepAwake starts the spinners. An empty argv — the tests — starts none.
func keepAwake(argv []string) spinners {
	var kids spinners
	for i := 0; len(argv) > 0 && i < runtime.NumCPU(); i++ {
		c := exec.Command(argv[0], argv[1:]...)
		if err := c.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: spinner:", err)
			continue
		}
		kids = append(kids, c)
	}
	return kids
}

// stop kills the spinners and waits until each has ended.
func (kids spinners) stop() {
	for _, c := range kids {
		_ = c.Process.Kill() // fails only if the child is already gone
		_ = c.Wait()         // a killed child's Wait reports the signal
	}
}

// spin is the spinner child: it burns its CPU at the lowest priority until
// it is killed or its parent is gone.
func spin() {
	runtime.LockOSThread() // nice is per thread on Linux: stay on the one it is set for
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		// At normal priority a spinner would take the CPU from the system
		// it is there to keep awake: better none.
		fmt.Fprintln(os.Stderr, "bench: spinner: setpriority:", err)
		return
	}
	for parent := os.Getppid(); os.Getppid() == parent; {
		for t0 := time.Now(); time.Since(t0) < 50*time.Millisecond; {
		}
	}
}

// gatewayStats is the open loop's own accounting of the phase.
type gatewayStats struct {
	sent, accepted, completed, shed, failed int
	scheduled                               time.Duration // the phase as the schedule lays it out

	lagMS    []float64 // how late each submit left, against its due instant
	submitUS []float64 // ServeHTTP wall per submit
	queueMS  []float64 // admission → first running event

	inflightMax int64
	coalesced   int64
	admitted    int64
	busyRetries int64
	unitWallMS  float64
}

// gatewayOpen is the front door over one warm in-memory backend. There are
// no sockets: submits go through the gateway's handler with an in-process
// recorder, and completions are observed on the gateway's event logs.
type gatewayOpen struct {
	e      *env
	svc    *dserve.Service
	gw     *gateway.Gateway
	h      http.Handler
	bodies [][]byte
	input  int64 // bytes of the distinct installs behind the six requests
}

func (g *gatewayOpen) setup(rows []*row) error {
	if err := generateAll(rows); err != nil {
		return err
	}
	g.svc = dserve.NewService(dserve.Config{MaxSteps: 2})
	var err error
	if g.gw, err = gateway.New(g.svc, gateway.Config{}, gwTenants); err != nil {
		return err
	}
	g.h = gateway.NewHandler(g.gw, dserve.NewHandler(g.svc))
	tails := map[int]bool{}
	for _, r := range rows {
		body, err := json.Marshal(r.request())
		if err != nil {
			return err
		}
		g.bodies = append(g.bodies, body)
		if !tails[r.tail] {
			tails[r.tail] = true
			g.input += r.input
		}
		// Pre-warm: every request has been served once before the phase.
		id, code := g.submit(body, 0)
		if code != http.StatusAccepted {
			return fmt.Errorf("pre-warm %s: status %d", r.name, code)
		}
		if _, _, err := g.await(gwTenants[0].Name, id); err != nil {
			return fmt.Errorf("pre-warm %s: %w", r.name, err)
		}
	}
	return nil
}

func (g *gatewayOpen) close() {
	if g.gw != nil {
		g.gw.Close()
	}
	if g.svc != nil {
		g.svc.Close()
	}
}

// submit posts one request body for the tenant and returns the gateway job
// ID and the status code.
func (g *gatewayOpen) submit(body []byte, tenant int) (string, int) {
	req, err := http.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0
	}
	req.Header.Set("X-API-Key", gwTenants[tenant].Keys[0])
	rw := httptest.NewRecorder()
	g.h.ServeHTTP(rw, req)
	var st struct {
		ID string `json:"id"`
	}
	if rw.Code == http.StatusAccepted {
		if err := json.Unmarshal(rw.Body.Bytes(), &st); err != nil {
			return "", 0
		}
	}
	return st.ID, rw.Code
}

// await parks on the job's event log until its terminal event. It returns
// the instant the job was first seen running and the terminal event.
func (g *gatewayOpen) await(tenant, id string) (time.Time, dserve.JobEvent, error) {
	var running time.Time
	deadline := time.NewTimer(jobTimeout)
	defer deadline.Stop()
	for after := -1; ; {
		evs, done, ch, err := g.gw.JobEvents(tenant, id, after)
		if err != nil {
			return running, dserve.JobEvent{}, err
		}
		for _, ev := range evs {
			after = ev.Seq
			if running.IsZero() && ev.Type == dserve.EventState && ev.State == dserve.JobRunning {
				running = time.Now()
			}
			if ev.Terminal {
				if ev.State != dserve.JobDone {
					return running, ev, fmt.Errorf("job %s: %s", ev.State, ev.Error)
				}
				return running, ev, nil
			}
		}
		if done {
			return running, dserve.JobEvent{}, fmt.Errorf("event stream ended without a terminal event")
		}
		select {
		case <-ch:
		case <-deadline.C:
			return running, dserve.JobEvent{}, fmt.Errorf("job not finished after %v", jobTimeout)
		}
	}
}

// stream writes every library of a finished gateway job into a counting
// sink and returns the backend's batch result.
func (g *gatewayOpen) stream(tenant, id string, r *row) (*dserve.BatchResult, error) {
	dsID, err := g.gw.Upstream(tenant, id)
	if err != nil {
		return nil, err
	}
	if _, err := streamJob(g.svc, dsID, r.in.LibNames); err != nil {
		return nil, err
	}
	return g.svc.ResultOf(dsID)
}

// runGatewayOpen is the open loop: one generator goroutine walks the seeded
// schedule, one schedule for the whole phase with no barrier in it, and
// starts every submit at its due instant, whatever the system does and
// however the previous submit is faring, and never skips a late one: a
// system that cannot keep up sees its backlog and its latencies grow. Each
// op runs on a goroutine of its own — a slow admission must not hold up the
// next arrival — and is timed from the instant it was due to its terminal
// event plus the stream. The whole phase, to the last op's end, is the
// timed section for CPU and allocation.
func runGatewayOpen(e *env, rows []*row, rn runner, seconds float64, res *result) {
	g := rn.(*gatewayOpen)
	sched := arrivalSchedule(e.seed, seconds, len(rows), len(gwTenants))
	stats := &gatewayStats{}
	res.gw = stats

	// lastOf marks each row's final submit, which gets the full check like
	// its first and every checkEvery-th between.
	visits := make([]int, len(rows))
	lastOf := make([]int, len(rows))
	for i, a := range sched {
		lastOf[a.row] = i
	}

	type done struct {
		idx      int
		s        sample
		accepted bool
		full     bool
	}
	var mu sync.Mutex // guards finished and the stats the ops update
	var finished []done
	var wg sync.WaitGroup
	var inflight int64
	// live counts the ops between their due instant and their end, nextDue is
	// the offset of the arrival the generator is waiting for, and idle wakes
	// the calibrator whenever live falls to zero.
	var live, nextDue atomic.Int64
	idle := make(chan struct{}, 1)

	// one is one op, from submit to streamed result.
	one := func(i int, a arrival, dueAt time.Time, t *opTrace, full bool) {
		defer wg.Done()
		r, tenant := rows[a.row], gwTenants[a.tenant].Name
		d := done{idx: i, s: sample{row: r, traced: t != nil, storedInput: g.input}, full: full}
		sentAt := time.Now()
		id, code := g.submit(g.bodies[a.row], a.tenant)
		submitted := time.Now()

		mu.Lock()
		stats.submitUS = append(stats.submitUS, us(submitted.Sub(sentAt)))
		switch code {
		case http.StatusAccepted:
			d.accepted = true
			stats.accepted++
			inflight++
			stats.inflightMax = max(stats.inflightMax, inflight)
		case http.StatusTooManyRequests:
			stats.shed++
			d.s.err = fmt.Errorf("shed")
		default:
			stats.failed++
			d.s.err = fmt.Errorf("submit: status %d", code)
		}
		mu.Unlock()

		var running, terminal time.Time
		if d.accepted {
			running, _, d.s.err = g.await(tenant, id)
			terminal = time.Now()
			if d.s.err == nil {
				d.s.out.res, d.s.err = g.stream(tenant, id, r)
			}
			if d.s.err == nil {
				d.s.out.stream = resultStream(d.s.out.res)
			}
		}
		end := time.Now()
		d.s.wall = end.Sub(dueAt)
		if t != nil {
			at := func(tm time.Time) int64 { return int64(tm.Sub(t.rec.epoch)) }
			t.child("submit", "gateway", at(sentAt), at(submitted), nil)
			if !running.IsZero() {
				t.child("queue", "gateway", at(submitted), at(running), nil)
				t.child("run", "dserve", at(running), at(terminal), nil)
				t.child("stream", "negativa", at(terminal), at(end), nil)
			}
			t.finish()
		}
		mu.Lock()
		if d.accepted {
			inflight--
		}
		if !running.IsZero() {
			stats.queueMS = append(stats.queueMS, ms(running.Sub(submitted)))
		}
		finished = append(finished, d)
		mu.Unlock()
		if live.Add(-1) == 0 {
			select {
			case idle <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
	}

	// An open loop at a third utilisation idles between bursts, and an idle
	// vCPU of this sandbox halts: every burst then starts by waking it, which
	// takes as long as the host pleases. Lowest-priority spinners keep the
	// vCPUs awake for the phase, as idle=poll would; they yield to anything
	// else that wants the CPU.
	awake := keepAwake(e.spinner)
	// The generator gets a scheduler slot of its own, as a load generator
	// gets a core or a machine of its own: with only NumCPU slots its timer
	// fires when a stage next yields, and its lag measures the system's load
	// instead of being independent of it. The services' worker pools are
	// sized by NumCPU and do not change. Ten interleaved rounds with and
	// without (NOISE.md): both together lowered op_p50_ms, op_p90_ms and the
	// generator's lag in ten rounds of ten and halved the spread of the
	// first two; either alone did not.
	procs := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	c0 := g.gw.Counters.Snapshot()
	res.meter.start()
	start := time.Now()

	// The calibration unit (calib.go) is read inside the phase, in the gaps
	// the schedule leaves: whenever the last op in flight has ended and the
	// next arrival is more than calibGuard away, so a reading (a quarter of a
	// millisecond) neither competes with an op nor delays a submit. Readings
	// taken before and after the phase do not describe it — without the
	// spinners the idle vCPUs halt, another state of the machine — and did
	// not steady its times; these do (NOISE.md, The open loop).
	stopReading, readingDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readingDone)
		for {
			select {
			case <-stopReading:
				return
			case <-idle:
			}
			if live.Load() == 0 && time.Duration(nextDue.Load())-time.Since(start) > calibGuard {
				res.calib.unit()
			}
		}
	}()
	for i, a := range sched {
		dueAt := start.Add(a.due)
		nextDue.Store(int64(a.due))
		if d := time.Until(dueAt); d > 0 {
			time.Sleep(d)
		}
		visit := visits[a.row]
		visits[a.row]++
		var t *opTrace
		if res.rec != nil && visit%2 == 1 {
			t = res.rec.begin(rows[a.row].name)
		}
		stats.sent++
		stats.lagMS = append(stats.lagMS, ms(time.Since(dueAt)))
		wg.Add(1)
		live.Add(1)
		go one(i, a, dueAt, t, visit == 0 || i == lastOf[a.row] || visit%e.checkEvery == 0)
	}
	wg.Wait()
	res.meter.stop()
	close(stopReading)
	<-readingDone
	// A system so slow that the phase left no gaps still gets a unit: read
	// now, with the vCPUs still awake.
	for res.calib.readings() < minPhaseReadings {
		res.calib.unit()
	}
	runtime.GOMAXPROCS(procs)
	awake.stop()
	stats.scheduled = time.Duration(seconds * float64(time.Second))

	c1 := g.gw.Counters.Snapshot()
	stats.coalesced = c1["gateway.coalesced"] - c0["gateway.coalesced"]
	stats.admitted = c1["gateway.admitted"] - c0["gateway.admitted"]
	stats.busyRetries = c1["gateway.backend_busy_retries"] - c0["gateway.backend_busy_retries"]
	stats.unitWallMS = g.gw.Timings.Summary("gateway.unit_wall").P50

	// Checks and bookkeeping happen after the phase, outside the timed
	// section, in schedule order.
	sort.Slice(finished, func(i, j int) bool { return finished[i].idx < finished[j].idx })
	stored := g.svc.Cache.Bytes()
	for _, d := range finished {
		d.s.stored = stored
		before := res.failed
		res.record(e, d.s, d.full)
		switch {
		case res.failed == before:
			stats.completed++
		case d.accepted:
			stats.failed++ // failed in flight, or failed the output check
		}
	}
	if lag := percentile(stats.lagMS, 0.9); lag > ms(maxLagP90) {
		res.invalid = fmt.Sprintf("generator lag p90 %.2f ms exceeds %v: the run measured the generator, not the system", lag, maxLagP90)
	}
}
