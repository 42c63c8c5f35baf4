package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/priv"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/server/loadgen"
	"repro/shill"
)

// httpClients is serve's closed-loop client count.
const httpClients = 2

// shilld is an in-process shilld behind a loopback httptest server.
type shilld struct {
	srv       *server.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *http.Client
	// lastSeq is each tenant's audit sequence point after its last
	// counted visit (count pass only, which runs one request at a time).
	lastSeq map[string]uint64
}

func newShilld(cfg server.Config) *shilld {
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: httpClients}
	return &shilld{srv: srv, ts: ts, transport: tr, client: &http.Client{Transport: tr}, lastSeq: map[string]uint64{}}
}

// post sends one run request; lat is the client round trip.
func (d *shilld) post(ctx context.Context, req server.RunRequest) (time.Duration, *server.RunResponse, string) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, "http: encode: " + err.Error()
	}
	hreq, err := http.NewRequestWithContext(ctx, "POST", d.ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return 0, nil, "http: " + err.Error()
	}
	hreq.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := d.client.Do(hreq)
	if err != nil {
		return time.Since(start), nil, "http: transport error"
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, nil, "http: transport error"
	}
	if resp.StatusCode != http.StatusOK {
		return lat, nil, fmt.Sprintf("http: status %d", resp.StatusCode)
	}
	var rr server.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return lat, nil, "http: bad response body"
	}
	return lat, &rr, ""
}

// finish fills the mode-dependent parts of an operation's result.
func (d *shilld) finish(ctx context.Context, r *opResult, tenant string, resp *server.RunResponse, md mode) {
	r.audit = -1
	if resp != nil && md != modeTimed {
		r.spans = resp.Trace
	}
	if md == modeCounted {
		seq, err := d.auditSeq(ctx, tenant)
		if err != nil {
			return
		}
		if last, ok := d.lastSeq[tenant]; ok {
			r.audit = int64(seq - last)
		}
		d.lastSeq[tenant] = seq
	}
}

// auditSeq reads a resident tenant's audit sequence point from the
// why-denied endpoint (asking for no explanations).
func (d *shilld) auditSeq(ctx context.Context, tenant string) (uint64, error) {
	u := fmt.Sprintf("%s/v1/audit/why-denied?tenant=%s&since=%d", d.ts.URL, tenant, uint64(math.MaxUint64))
	body, err := d.get(ctx, u)
	if err != nil {
		return 0, err
	}
	var wr server.WhyDeniedResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		return 0, err
	}
	return wr.AuditSeq, nil
}

func (d *shilld) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// meter is empty: shilld does not expose its tenant machines' audit
// emission cost.
func (d *shilld) meter() meter { return meter{} }

func (d *shilld) close() {
	d.transport.CloseIdleConnections()
	d.ts.Close()
	d.srv.Close()
}

// warm drives n requests of mix through loadgen and records in st how
// many of them failed to verify.
func (d *shilld) warm(ctx context.Context, st *setupStats, mix loadgen.Mix, n, tenants int) error {
	rep, err := loadgen.Run(ctx, loadgen.Config{
		URL: d.ts.URL, Clients: httpClients, Requests: n, Mix: mix, Tenants: tenants,
	})
	if err != nil {
		return err
	}
	st.warmOps += n
	for _, f := range []struct {
		n    int
		what string
	}{
		{rep.Rejected, "rejected with 429"},
		{rep.HTTPErrors, "transport error or unexpected status"},
		{rep.BadAllow, "allow probe did not verify"},
		{rep.BadDeny, "deny probe lacks provenance"},
		{n - rep.Allowed - rep.Denied - rep.Rejected - rep.HTTPErrors - rep.Bad(), "no verified answer"},
	} {
		for i := 0; i < f.n; i++ {
			st.warmFails = append(st.warmFails, "warm-up: serve: "+f.what)
		}
	}
	return nil
}

// --- serve -----------------------------------------------------------

// serveTenants are resident for the whole run; shilld's default
// MaxMachines (8) holds them all, so nothing is evicted.
const serveTenants = 4

// serveAllowPct is the share of allowed requests; the rest are denied.
const serveAllowPct = 70

// serveWarmOps is the warm-up's length in requests.
const serveWarmOps = 100 * serveTenants

type serveEnv struct {
	*shilld
	allow, deny scenario.Probe
	rng         [httpClients]*rand.Rand
	n           [httpClients]int64
}

func setupServe(ctx context.Context, seed int64, untraced bool) (env, *setupStats, error) {
	var cfg server.Config
	if untraced {
		cfg.MachineOptions = func(string) []shill.Option {
			return []shill.Option{shill.WithWorkload(shill.WorkloadDemo), shill.WithTraceDisabled()}
		}
	}
	e := &serveEnv{shilld: newShilld(cfg)}
	for _, p := range scenario.Probes("legacy") {
		switch p.Kind {
		case scenario.KindAllow:
			e.allow = p
		case scenario.KindDeny:
			e.deny = p
		}
	}
	for c := range e.rng {
		e.rng[c] = rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	}
	mix := loadgen.MustMix("legacy", loadgen.Ratio{AllowPct: serveAllowPct, DenyPct: 100 - serveAllowPct})
	var st setupStats
	if err := e.warm(ctx, &st, mix, serveWarmOps, serveTenants); err != nil {
		e.close()
		return nil, nil, err
	}
	return e, &st, nil
}

func (e *serveEnv) clients() int { return httpClients }

// op sends client c's next request. Client c owns tenants c and
// c+httpClients, so no tenant machine runs two requests at once and a
// run's kernel-op window holds only its own work.
func (e *serveEnv) op(ctx context.Context, c int, md mode) opResult {
	rng := e.rng[c]
	tenant := fmt.Sprintf("t%d", c+httpClients*rng.Intn(serveTenants/httpClients))
	allow := rng.Intn(100) < serveAllowPct
	probe := e.deny
	if allow {
		probe = e.allow
	}
	pr := probe.Request(e.n[c])
	e.n[c]++
	req := server.RunRequest{Tenant: tenant, Script: pr.Script, ScriptName: pr.ScriptName}
	lat, resp, fail := e.post(ctx, req)
	r := opResult{lat: lat, fail: fail}
	e.finish(ctx, &r, tenant, resp, md)
	if fail != "" {
		return r
	}
	if allow {
		if resp.ExitStatus != 0 || resp.Error != "" || resp.Console != pr.WantConsole {
			r.fail = "serve: allow probe did not print " + strconv.Quote(pr.WantConsole)
		}
	} else if resp.ExitStatus == 0 || !deniedWrite(resp.Denials) {
		r.fail = "serve: deny probe lacks capability-layer provenance for the missing write"
	}
	return r
}

// deniedWrite reports whether the denials name the capability layer,
// a missing write right, and the contract chain that attenuated it.
func deniedWrite(ds []*shill.DenyReason) bool {
	for _, d := range ds {
		if d.Layer == audit.LayerCapability && d.Missing.Has(priv.RWrite) && len(d.Blame) > 0 {
			return true
		}
	}
	return false
}
