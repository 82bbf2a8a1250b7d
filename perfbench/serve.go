package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"guardedop/internal/core"
	"guardedop/internal/mdcd"
	"guardedop/internal/template"
	"guardedop/internal/uncertainty"
)

// serve-mix: the gsuserve binary over loopback HTTP. Requests follow a
// fixed cycle of routes and of hot/fresh parameter sets (only the
// parameter values are drawn from the seed), so the mix — and with it
// the cost of a request on average — is the same in every run and every
// phase:
//
//   - hot requests reuse a small palette pre-warmed in set-up, so gsuserve
//     answers them from its response cache;
//   - fresh requests carry never-seen parameter sets, so gsuserve builds
//     an analyzer (or a templated scenario) for each.
//
// A run measures open-loop phases at the fixed rates in serveRates, each
// request timed from when it was due, then one closed-loop phase with a
// single caller for ops_per_s. The client uses at most nproc connections.

// Mix parameters.
const (
	mixCycle        = 10 // requests per cycle
	paletteSize     = 8  // hot parameter sets, two per route
	curvePoints     = 20 // /v1/curve grid intervals
	scenarioPoints  = 10 // /v1/scenario/curve grid intervals
	propagateDraws  = 4  // /v1/propagate posterior samples
	optimizeGrid    = 20 // /v1/optimize coarse grid (the route default)
	requestTimeout  = 60 * time.Second
	serverStartWait = 20 * time.Second
)

// setupServeRepeats is how many times a serve-mix run sets up; it
// reports the median.
const setupServeRepeats = 5

// serveShare splits a run's measured time between the open-loop phases
// at serveRates and the closed-loop phase (last). The nominal rate gets
// the largest share, since op_p50_ms and op_tail_ms are read there.
var serveShare = []float64{0.6, 1.0 / 15, 1.0 / 15, 4.0 / 15}

// freshSlot reports whether the i-th request of the mix is fresh: two of
// every ten, so the fresh share is 0.2.
func freshSlot(i int) bool { return i%mixCycle == 3 || i%mixCycle == 8 }

// serveServerWorkers mirrors gsuserve's default -workers, which the
// in-process reference answers use.
const serveServerWorkers = 2

// apiReq is one request of the mix.
type apiReq struct {
	route  int // index into serveRoutes
	body   []byte
	hot    bool
	params mdcd.Params    // resolved parameter set (paper-model routes)
	spec   *template.Spec // scenario route
	seed   int64          // propagate route
	ref    *refAnswer     // hot requests: the in-process answer
	refErr error          // hot requests: why there is no in-process answer
}

// theta is the request's mission time θ.
func (r *apiReq) theta() float64 {
	if r.spec != nil {
		return r.spec.Theta
	}
	return r.params.Theta
}

// refAnswer is the in-process answer a hot response must match.
type refAnswer struct {
	curve []core.Result
	best  core.Result
	prop  *uncertainty.Propagation
}

type paramsJSON struct {
	Theta    float64 `json:"theta"`
	MuNew    float64 `json:"mu_new"`
	Coverage float64 `json:"coverage"`
	Alpha    float64 `json:"alpha"`
	Beta     float64 `json:"beta"`
}

func paramsBody(p mdcd.Params) paramsJSON {
	return paramsJSON{Theta: p.Theta, MuNew: p.MuNew, Coverage: p.Coverage, Alpha: p.Alpha, Beta: p.Beta}
}

// newReq draws one request for route from r.
func newReq(r *rand.Rand, route int) (*apiReq, error) {
	req := &apiReq{route: route}
	var doc any
	switch serveRoutes[route].label {
	case "curve":
		req.params = inDomainParams(r)
		doc = map[string]any{"params": paramsBody(req.params), "points": curvePoints}
	case "optimize":
		req.params = inDomainParams(r)
		doc = map[string]any{"params": paramsBody(req.params), "grid_points": optimizeGrid}
	case "propagate":
		req.params = inDomainParams(r)
		req.seed = 1 + r.Int63n(1<<30)
		doc = map[string]any{"params": paramsBody(req.params), "samples": propagateDraws, "seed": req.seed}
	case "scenario_curve":
		// One guard policy keeps the scenario requests' cost homogeneous;
		// numeric-sweep covers the policies.
		req.spec = scenarioSpec(r, 3, template.PolicyGlobal)
		doc = map[string]any{"spec": req.spec, "points": scenarioPoints}
	}
	var err error
	req.body, err = json.Marshal(doc)
	return req, err
}

// mix hands out the requests of the cycle in order; it is safe for
// concurrent use.
type mix struct {
	mu       sync.Mutex
	palette  []*apiReq
	fresh    *rand.Rand
	i        int
	nFresh   int
	nHot     int
	firstErr error
}

func (m *mix) next() (int, *apiReq) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.i
	m.i++
	if !freshSlot(i) {
		req := m.palette[m.nHot%len(m.palette)]
		m.nHot++
		return i, req
	}
	req, err := newReq(m.fresh, m.nFresh%len(serveRoutes))
	m.nFresh++
	if err != nil && m.firstErr == nil {
		m.firstErr = err
	}
	return i, req
}

// outcome is one request's record.
type outcome struct {
	route      int
	hot        bool
	traced     bool
	due        time.Time // when the schedule wanted it sent
	gotConn    time.Time // when it had a connection
	done       time.Time
	err        error
	cachedResp bool
}

func (o outcome) latencyMS() float64 { return ms(o.done.Sub(o.due)) }
func (o outcome) lagMS() float64     { return ms(o.gotConn.Sub(o.due)) }

// server is one spawned gsuserve process.
type server struct {
	cmd   *exec.Cmd
	base  string // http://host:port of the API
	pprof string // http://host:port of the pprof listener
	done  chan error
}

var (
	listenRe = regexp.MustCompile(`"msg":"listening".*"addr":"([^"]+)"`)
	pprofRe  = regexp.MustCompile(`pprof: serving on (http://[^/\s]+)`)
)

// startServer spawns gsuserve with its default flags, except for a free
// loopback port and a pprof listener (read for the process's allocation
// total), and waits until /readyz answers 200.
func startServer(ctx context.Context, bin string, admin *http.Client) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gsuserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	found := make(chan [2]string, 2) // one per announcement line
	go func() {
		// Read stderr until both addresses are announced, then discard the
		// access log unread.
		r := bufio.NewReader(stderr)
		for n := 0; n < 2; {
			line, err := r.ReadString('\n')
			if m := listenRe.FindStringSubmatch(line); m != nil {
				found <- [2]string{"api", "http://" + m[1]}
				n++
			} else if m := pprofRe.FindStringSubmatch(line); m != nil {
				found <- [2]string{"pprof", m[1]}
				n++
			}
			if err != nil {
				break
			}
		}
		_, _ = io.Copy(io.Discard, r)
		s.done <- cmd.Wait()
	}()
	timeout := time.After(serverStartWait)
	for s.base == "" || s.pprof == "" {
		select {
		case f := <-found:
			if f[0] == "api" {
				s.base = f[1]
			} else {
				s.pprof = f[1]
			}
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("gsuserve exited during start-up: %v", err)
		case <-timeout:
			s.stop()
			return nil, fmt.Errorf("gsuserve did not announce its addresses within %v", serverStartWait)
		}
	}
	for {
		resp, err := admin.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-timeout:
			s.stop()
			return nil, fmt.Errorf("gsuserve not ready within %v", serverStartWait)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop asks gsuserve to drain (SIGTERM), kills it if it has not exited
// after ten seconds, and waits for the process to end.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	select {
	case err := <-s.done:
		s.done <- err
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		s.done <- <-s.done
	}
}

// scrape returns the un-labelled and labelled sample values of /metrics.
func scrape(admin *http.Client, base string) (map[string]float64, error) {
	resp, err := admin.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// totalAllocBytes reads runtime.MemStats.TotalAlloc of the server from
// the MemStats block of its pprof heap profile.
func totalAllocBytes(admin *http.Client, pprofBase string) (float64, error) {
	resp, err := admin.Get(pprofBase + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseFloat(rest, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no TotalAlloc in the heap profile")
}

// client sends the mix's requests over at most nproc connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	n := runtime.NumCPU()
	return &client{
		base: base,
		http: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
		},
	}
}

// send issues req, due at due, and checks the response.
func (c *client) send(ctx context.Context, req *apiReq, due time.Time, traced bool, traceID string) outcome {
	o := outcome{route: req.route, hot: req.hot, traced: traced, due: due}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+serveRoutes[req.route].path, bytes.NewReader(req.body))
	if err != nil {
		o.err, o.done, o.gotConn = err, time.Now(), time.Now()
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traced {
		hreq.Header.Set("X-Trace-Id", traceID)
	}
	hreq = hreq.WithContext(httptrace.WithClientTrace(hreq.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { o.gotConn = time.Now() },
	}))
	resp, err := c.http.Do(hreq)
	if err != nil {
		o.err, o.done = err, time.Now()
		if o.gotConn.IsZero() {
			o.gotConn = o.done
		}
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	if o.gotConn.IsZero() {
		o.gotConn = o.done
	}
	o.cachedResp = resp.Header.Get("X-Cache") == "hit"
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("%s: status %d: %.200s", serveRoutes[req.route].path, resp.StatusCode, body)
	default:
		o.err = checkResponse(req, body)
	}
	return o
}

// Response documents, as far as the checks read them.
type pointDoc struct {
	Phi   float64 `json:"phi"`
	Y     float64 `json:"y"`
	EWPhi float64 `json:"ew_phi"`
	YS1   float64 `json:"ys1"`
	YS2   float64 `json:"ys2"`
	Gamma float64 `json:"gamma"`
	PS1   float64 `json:"ps1"`
}

type responseDoc struct {
	Degraded        bool       `json:"degraded"`
	PointsRequested int        `json:"points_requested"`
	PointsReturned  int        `json:"points_returned"`
	Results         []pointDoc `json:"results"`
	Best            *pointDoc  `json:"best"`
	SamplesUsed     int        `json:"samples_used"`
	RobustPhi       float64    `json:"robust_phi"`
	RobustEY        float64    `json:"robust_ey"`
	PlugInPhi       float64    `json:"plugin_phi"`
}

// checkResponse applies the per-request checks — not degraded, the
// requested point or sample count, Y(0) = 1, every Y finite — and, for a
// hot request, compares the answer with the in-process one.
func checkResponse(req *apiReq, body []byte) error {
	if req.refErr != nil {
		return fmt.Errorf("no in-process answer to compare with: %w", req.refErr)
	}
	var d responseDoc
	if err := json.Unmarshal(body, &d); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if d.Degraded {
		return fmt.Errorf("degraded response")
	}
	label := serveRoutes[req.route].label
	switch label {
	case "curve", "scenario_curve":
		want := curvePoints + 1
		if label == "scenario_curve" {
			want = scenarioPoints + 1
		}
		if d.PointsRequested != want || d.PointsReturned != want || len(d.Results) != want {
			return fmt.Errorf("%s: %d/%d points returned, want %d", label, d.PointsReturned, d.PointsRequested, want)
		}
		if d.Results[0].Phi != 0 || math.Abs(d.Results[0].Y-1) > 1e-9 {
			return fmt.Errorf("%s: Y(%g) = %.17g, want Y(0) = 1", label, d.Results[0].Phi, d.Results[0].Y)
		}
		for i, p := range d.Results {
			if !finite(p.Y) {
				return fmt.Errorf("%s: Y(%g) = %g", label, p.Phi, p.Y)
			}
			if req.ref != nil {
				if err := agreeDoc(p, req.ref.curve[i], req.theta()); err != nil {
					return fmt.Errorf("%s vs in-process: %w", label, err)
				}
			}
		}
	case "optimize":
		if d.Best == nil || !finite(d.Best.Y) {
			return fmt.Errorf("optimize: no finite optimum")
		}
		if req.ref != nil {
			if err := agreeDoc(*d.Best, req.ref.best, req.theta()); err != nil {
				return fmt.Errorf("optimize vs in-process: %w", err)
			}
		}
	case "propagate":
		if d.SamplesUsed != propagateDraws || !finite(d.RobustEY) {
			return fmt.Errorf("propagate: %d of %d samples used, robust E[Y] %g", d.SamplesUsed, propagateDraws, d.RobustEY)
		}
		if p := req.ref; p != nil {
			theta := req.theta()
			for _, c := range []struct {
				name      string
				got, want float64
				scale     float64
			}{
				{"robust_ey", d.RobustEY, p.prop.RobustEY, math.Max(math.Abs(p.prop.RobustEY), 1)},
				{"robust_phi", d.RobustPhi, p.prop.RobustPhi, theta},
				{"plugin_phi", d.PlugInPhi, p.prop.PlugInPhi, theta},
			} {
				if !(math.Abs(c.got-c.want) <= relTol*c.scale) {
					return fmt.Errorf("propagate vs in-process: %s %.15g vs %.15g", c.name, c.got, c.want)
				}
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// agreeDoc compares a response point with the in-process result at φ.
// The response carries only the published measures, so the rest of the
// comparison record is taken from the reference itself.
func agreeDoc(p pointDoc, want core.Result, theta float64) error {
	got := want
	got.Phi, got.Y, got.EWPhi, got.YS1, got.YS2, got.Gamma, got.PS1 = p.Phi, p.Y, p.EWPhi, p.YS1, p.YS2, p.Gamma, p.PS1
	if got.Phi != want.Phi {
		return fmt.Errorf("phi %g vs %g", got.Phi, want.Phi)
	}
	_, err := agree(got, want, theta)
	return err
}

// reference computes a hot request's answer in process, the way
// gsuserve's handlers do with their default options.
func reference(ctx context.Context, req *apiReq) (*refAnswer, error) {
	auto := core.Options{Parametric: core.ParametricAuto}
	switch serveRoutes[req.route].label {
	case "curve", "optimize":
		a, err := core.NewAnalyzerWithOptions(req.params, auto)
		if err != nil {
			return nil, err
		}
		if serveRoutes[req.route].label == "optimize" {
			best, err := a.OptimizePhiContext(ctx, core.OptimizeOptions{GridPoints: optimizeGrid, Workers: serveServerWorkers})
			return &refAnswer{best: best}, err
		}
		pr, err := a.CurvePartialWorkers(ctx, core.SweepGrid(req.params.Theta, curvePoints), serveServerWorkers)
		if err != nil {
			return nil, err
		}
		return &refAnswer{curve: pr.Successes()}, pr.Report.Err()
	case "propagate":
		prop, err := uncertainty.PropagateContext(ctx, req.params,
			uncertainty.Gamma{Shape: 2, Rate: 2 / req.params.MuNew},
			uncertainty.PropagateOptions{Samples: propagateDraws, Seed: req.seed, Workers: serveServerWorkers, Parametric: core.ParametricAuto})
		return &refAnswer{prop: prop}, err
	default:
		spec := *req.spec
		spec.Limits.MaxStates = 1 << 15 // gsuserve's cap on served scenarios
		inst, err := template.Build(ctx, &spec)
		if err != nil {
			return nil, err
		}
		a, err := core.NewScenarioAnalyzer(core.ScenarioModels{
			Params: inst.Params, Gd: inst.Gd, NdNew: inst.NdNew, NdOld: inst.NdOld, Rhos: inst.Rhos,
		}, auto)
		if err != nil {
			return nil, err
		}
		pr, err := a.CurvePartialWorkers(ctx, core.SweepGrid(spec.Theta, scenarioPoints), serveServerWorkers)
		if err != nil {
			return nil, err
		}
		return &refAnswer{curve: pr.Successes()}, pr.Report.Err()
	}
}

// phase is the record of one load phase.
type phase struct {
	rate     float64 // offered rate; 0 for the closed loop
	start    time.Time
	end      time.Time // last completion
	outcomes []outcome
}

func (p *phase) failed() int {
	n := 0
	for _, o := range p.outcomes {
		if o.err != nil {
			n++
		}
	}
	return n
}

func (p *phase) latencies(keep func(outcome) bool) sample {
	var s sample
	for _, o := range p.outcomes {
		if keep == nil || keep(o) {
			s = append(s, o.latencyMS())
		}
	}
	return s
}

// lagGrows reports a growing backlog: the median time requests waited
// for the generator and a connection rose, from the first quarter of the
// phase to the last, by more than a tenth of the latency limit.
func (p *phase) lagGrows(limitMS float64) bool {
	o := append([]outcome(nil), p.outcomes...)
	sort.Slice(o, func(i, j int) bool { return o[i].due.Before(o[j].due) })
	q := len(o) / 4
	if q == 0 {
		return false
	}
	var first, last sample
	for _, x := range o[:q] {
		first = append(first, x.lagMS())
	}
	for _, x := range o[len(o)-q:] {
		last = append(last, x.lagMS())
	}
	return last.median()-first.median() > limitMS/10
}

// openLoop offers rate requests per second for d: the arrival times are
// a seeded Poisson process conditioned on rate·d arrivals (sorted
// uniform times), each request timed from its due time.
func openLoop(ctx context.Context, c *client, m *mix, r *rand.Rand, rate float64, d time.Duration, traced bool) *phase {
	n := int(math.Round(rate * d.Seconds()))
	offsets := make([]float64, n)
	for i := range offsets {
		offsets[i] = r.Float64() * d.Seconds()
	}
	sort.Float64s(offsets)
	ph := &phase{rate: rate, outcomes: make([]outcome, n)}
	var wg sync.WaitGroup
	ph.start = time.Now()
	for i, off := range offsets {
		due := ph.start.Add(time.Duration(off * float64(time.Second)))
		time.Sleep(time.Until(due))
		seq, req := m.next()
		wg.Add(1)
		go func(i, seq int, req *apiReq) {
			defer wg.Done()
			tracedReq := traced && seq%2 == 0
			ph.outcomes[i] = c.send(ctx, req, due, tracedReq, fmt.Sprintf("perfbench-%d", seq))
		}(i, seq, req)
	}
	wg.Wait()
	ph.end = time.Now()
	return ph
}

// closedLoop runs one caller that sends its next request when the
// previous one completes, for d. One caller keeps the order in which the
// server sees the mix, and so the work in the phase, the same in every
// run; max_rate_rps covers concurrent load.
func closedLoop(ctx context.Context, c *client, m *mix, d time.Duration) *phase {
	ph := &phase{start: time.Now()}
	deadline := ph.start.Add(d)
	for time.Now().Before(deadline) {
		_, req := m.next()
		ph.outcomes = append(ph.outcomes, c.send(ctx, req, time.Now(), false, ""))
	}
	ph.end = time.Now()
	return ph
}

// serveRun is the outcome of a serve-mix run.
type serveRun struct {
	metrics           map[string]float64
	attempted, failed int
	firstErr          error
}

// serveSetup spawns gsuserve, waits for /readyz and pre-warms the hot
// palette, one request after another; it returns the running server. A
// failing pre-warm request is not a set-up failure: the hot requests
// that reuse its parameters fail, and are counted, in the load phases.
func serveSetup(ctx context.Context, bin string, admin *http.Client, palette []*apiReq) (*server, error) {
	s, err := startServer(ctx, bin, admin)
	if err != nil {
		return nil, err
	}
	c := newClient(s.base)
	for _, req := range palette {
		c.send(ctx, req, time.Now(), false, "")
	}
	return s, nil
}

func runServeMix(ctx context.Context, bin string, seed int64, seconds int, traced bool, tracePath string) (*serveRun, error) {
	admin := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}
	// The palette comes from a fixed seed, so set-up (which pre-warms it)
	// does the same work in every run; the fresh sets follow --seed.
	pr := stream(0, streamPalette)
	palette := make([]*apiReq, paletteSize)
	for i := range palette {
		req, err := newReq(pr, i%len(serveRoutes))
		if err != nil {
			return nil, err
		}
		req.hot = true
		palette[i] = req
	}

	// The first set-up starts the server the run loads. Set-up is measured
	// setupServeRepeats times: the other set-ups start a second gsuserve
	// between load phases and stop it again, so the median samples the
	// machine at several moments of the run.
	var setupTimes sample
	setup := func() (*server, error) {
		t0 := time.Now()
		s, err := serveSetup(ctx, bin, admin, palette)
		if err == nil {
			setupTimes = append(setupTimes, time.Since(t0).Seconds())
		}
		return s, err
	}
	srv, err := setup()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	extraSetup := func() error {
		s, err := setup()
		if err != nil {
			return err
		}
		s.stop()
		return nil
	}

	// The in-process answers the hot responses are checked against.
	for _, req := range palette {
		req.ref, req.refErr = reference(ctx, req)
	}

	m := &mix{palette: palette, fresh: stream(seed, streamFresh)}
	c := newClient(srv.base)
	sched := stream(seed, streamSchedule)
	before, err := scrape(admin, srv.base)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	alloc0, err := totalAllocBytes(admin, srv.pprof)
	if err != nil {
		return nil, fmt.Errorf("reading gsuserve allocations: %w", err)
	}

	total := time.Duration(seconds) * time.Second
	var phases []*phase
	for k, rate := range serveRates {
		phases = append(phases, openLoop(ctx, c, m, sched, rate, time.Duration(float64(total)*serveShare[k]), traced))
		if err := extraSetup(); err != nil {
			return nil, err
		}
	}
	closed := closedLoop(ctx, c, m, time.Duration(float64(total)*serveShare[len(serveRates)]))
	for len(setupTimes) < setupServeRepeats {
		if err := extraSetup(); err != nil {
			return nil, err
		}
	}

	after, err := scrape(admin, srv.base)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	alloc1, err := totalAllocBytes(admin, srv.pprof)
	if err != nil {
		return nil, fmt.Errorf("reading gsuserve allocations: %w", err)
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, fmt.Errorf("reading gsuserve peak RSS: %w", err)
	}
	if m.firstErr != nil {
		return nil, fmt.Errorf("generating requests: %w", m.firstErr)
	}

	run := &serveRun{}
	all := append(append([]*phase(nil), phases...), closed)
	for _, ph := range all {
		for _, o := range ph.outcomes {
			run.attempted++
			if o.err != nil {
				run.failed++
				if run.firstErr == nil {
					run.firstErr = o.err
				}
			}
		}
	}
	limit := latencyLimitMS["serve-mix"]
	nominal := phases[serveNominal]
	lat := nominal.latencies(nil)
	tail, pct, windows := lat.windowedTail()
	fmt.Printf("op_tail_ms is p%.2f, the median over %d windows of %d requests at %g req/s\n", pct, windows, len(lat), nominal.rate)

	maxRate := 0.0
	for _, ph := range phases {
		t, _ := ph.latencies(nil).tail()
		ok := ph.failed() == 0 && t <= limit && !ph.lagGrows(limit)
		achieved := float64(len(ph.outcomes)) / ph.end.Sub(ph.start).Seconds()
		fmt.Printf("offered %g req/s: achieved %.3f req/s, tail %.1f ms, %d failed, meets limit: %v\n",
			ph.rate, achieved, t, ph.failed(), ok)
		if ok {
			maxRate = achieved
		}
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	requests := float64(run.attempted)

	if !traced {
		run.metrics = map[string]float64{
			"setup_s":         setupTimes.median(),
			"op_p50_ms":       lat.median(),
			"op_tail_ms":      tail,
			"ops_per_s":       float64(len(closed.outcomes)) / closed.end.Sub(closed.start).Seconds(),
			"max_rate_rps":    maxRate,
			"alloc_mb_per_op": (alloc1 - alloc0) / 1e6 / requests,
			"peak_rss_mb":     rss,
		}
		return run, nil
	}

	mt := map[string]float64{
		"serve.cache_hit_ratio": delta("gsu_serve_cache_hits_total") /
			(delta("gsu_serve_cache_hits_total") + delta("gsu_serve_cache_misses_total")),
		"serve.fresh_share": float64(m.nFresh) / float64(m.nFresh+m.nHot),
		"serve.coalesced":   delta("gsu_serve_coalesced_total"),
		"serve.shed":        delta("gsu_serve_shed_total"),
		"serve.degraded":    delta("gsu_serve_degraded_total"),
		"serve.errors":      delta("gsu_serve_errors_total"),
		"go.gc_per_op":      delta("gsu_gc_cycles_total") / requests,
	}
	var hot, hotHits float64
	for _, ph := range all {
		for _, o := range ph.outcomes {
			if o.hot {
				hot++
				if o.cachedResp {
					hotHits++
				}
			}
		}
	}
	mt["serve.hot_hit_share"] = hotHits / hot
	var srvNanos, srvCount float64
	for _, r := range serveRoutes {
		srvNanos += delta(`gsu_stage_nanos_total{stage="serve.http.` + r.label + `"}`)
		srvCount += delta(`gsu_stage_total{stage="serve.http.` + r.label + `"}`)
	}
	if srvCount > 0 {
		mt["serve.server_ms_per_req"] = srvNanos / srvCount / 1e6
	}
	for k, ph := range phases {
		t, _ := ph.latencies(nil).tail()
		mt[fmt.Sprintf("serve.rate%d.p50_ms", k+1)] = ph.latencies(nil).median()
		mt[fmt.Sprintf("serve.rate%d.tail_ms", k+1)] = t
	}
	var lags sample
	rec := newRecorder()
	for _, ph := range phases {
		for _, o := range ph.outcomes {
			lags = append(lags, o.lagMS())
			root := rec.startAt("op", 0, o.due)
			rec.endAt(rec.startAt("loadgen.wait", root, o.due), o.gotConn)
			rec.endAt(rec.startAt("serve.request", root, o.gotConn), o.done)
			rec.endAt(root, o.done)
		}
	}
	mt["loadgen.lag_p99_ms"] = lags.quantile(0.99)
	n := float64(len(lags))
	for layer, v := range rec.selfMSByLayer() {
		mt["self."+layer+"_ms"] = v / n
	}
	for ri, r := range serveRoutes {
		var l sample
		for _, ph := range phases {
			l = append(l, ph.latencies(func(o outcome) bool { return o.route == ri })...)
		}
		t, _ := l.tail()
		mt["serve.route."+r.label+".p50_ms"] = l.median()
		mt["serve.route."+r.label+".tail_ms"] = t
	}
	tracedLat := nominal.latencies(func(o outcome) bool { return o.traced })
	untracedLat := nominal.latencies(func(o outcome) bool { return !o.traced })
	mt["op.traced_p50_ms"] = tracedLat.median()
	mt["op.untraced_p50_ms"] = untracedLat.median()
	mt["trace.overhead_ms"] = tracedLat.median() - untracedLat.median()
	if err := rec.write(tracePath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	run.metrics = mt
	return run, nil
}
