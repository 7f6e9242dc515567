// Package httpfront exposes a host.Server over HTTP: per-tenant invoke
// routes, a drain-aware health endpoint, and a JSON stats endpoint. It is
// the seam where the serving layer's outcome vocabulary becomes wire
// semantics — every host.Status has exactly one documented HTTP code (see
// StatusCode) — and where client disconnects become cancellations: the
// request's http context is passed straight into host.Server.Do, so a
// caller that goes away while its request is queued resolves
// StatusCanceled without ever occupying a worker.
//
// Routes:
//
//	POST /v1/tenants/{tenant}/invoke  run one request (body = guest input;
//	                                  empty body = tenant's synthetic stream)
//	GET  /healthz                     readiness; 503 once draining
//	GET  /statsz                      StatszV1 (versioned typed stats document)
//	POST /drainz                      flip into draining (router-driven drain)
//
// Every non-2xx invoke response carries an ErrorEnvelope JSON body and
// every invoke response echoes RequestIDHeader (see wire.go).
package httpfront

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/stats"
	"hfi/internal/workloads"
)

// StatusClientClosedRequest is the nginx-convention code for a request
// whose client disconnected before a response existed. Nobody is usually
// left to read it; it exists so access logs distinguish abandoned
// requests from server failures.
const StatusClientClosedRequest = 499

// Tenant is one routable entry: the workload that backs the URL name and
// the isolation configuration its instances run under.
type Tenant struct {
	Workload workloads.Tenant
	Iso      faas.Config
}

// Front is the HTTP serving layer over one host.Server.
type Front struct {
	host     *host.Server
	reg      map[string]Tenant
	seqs     sync.Map // tenant name → *atomic.Uint64 request sequence
	draining atomic.Bool
	started  time.Time

	// MaxBody bounds an invoke request body (bytes). Defaults to 1 MiB.
	MaxBody int64

	// Shard names this front in its StatszV1 and error envelopes — set by
	// the cluster tier so a relayed envelope says which backend produced
	// the verdict. Empty for a standalone server.
	Shard string
}

// New builds a front over srv routing the registered tenants.
func New(srv *host.Server, reg map[string]Tenant) *Front {
	return &Front{host: srv, reg: reg, started: time.Now(), MaxBody: 1 << 20}
}

// Host returns the underlying server (the drain path closes it directly).
func (f *Front) Host() *host.Server { return f.host }

// BeginDrain flips /healthz to 503 so load balancers stop routing here
// (Serve's begin step); in-flight and queued work is unaffected.
func (f *Front) BeginDrain() { f.draining.Store(true) }

// Serve is the one serve-and-drain sequence of every HTTP tier. It serves
// h on ln until ctx ends or serving fails. Then it drains: begin (flip
// /healthz to 503), wait for load balancers to notice, finish (queued and
// in-flight work ends with real outcomes), and shut the listener down
// within 10 s. It returns the serve error, or else the shutdown error.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, wait time.Duration, begin, finish func()) error {
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	begin()
	time.Sleep(wait)
	finish()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(sctx)
}

// Handler returns the route mux.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{tenant}/invoke", f.invoke)
	mux.HandleFunc("GET /healthz", f.healthz)
	mux.HandleFunc("GET /statsz", f.statsz)
	mux.HandleFunc("POST /drainz", f.drainz)
	return mux
}

// StatusCode is the documented host.Status → HTTP mapping:
//
//	StatusOK       200    body is the guest response
//	StatusShed     429    backpressure (queue full or breaker open); Retry-After set
//	StatusRejected 422    program failed static verification — retrying cannot help
//	StatusTimeout  504    fuel budget exhausted mid-run
//	StatusFault    502    guest faulted
//	StatusClosed   503    server draining; Retry-After set
//	StatusCanceled 499    client went away first
func StatusCode(st host.Status) int {
	switch st {
	case host.StatusOK:
		return http.StatusOK
	case host.StatusShed:
		return http.StatusTooManyRequests
	case host.StatusRejected:
		return http.StatusUnprocessableEntity
	case host.StatusTimeout:
		return http.StatusGatewayTimeout
	case host.StatusFault:
		return http.StatusBadGateway
	case host.StatusClosed:
		return http.StatusServiceUnavailable
	case host.StatusCanceled:
		return StatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// OutcomeForCode inverts StatusCode for HTTP-driving load generators:
// which outcome class an observed response code counts toward. The bool
// is false for codes outside the mapping (transport errors, 404s).
func OutcomeForCode(code int) (stats.Outcome, bool) {
	switch code {
	case http.StatusOK:
		return stats.OutcomeOK, true
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return stats.OutcomeShed, true
	case http.StatusUnprocessableEntity:
		return stats.OutcomeRejected, true
	case http.StatusGatewayTimeout:
		return stats.OutcomeTimeout, true
	case http.StatusBadGateway:
		return stats.OutcomeFault, true
	case StatusClientClosedRequest:
		return stats.OutcomeCanceled, true
	default:
		return 0, false
	}
}

func (f *Front) invoke(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	reqID := r.Header.Get(RequestIDHeader)
	te, ok := f.reg[name]
	if !ok {
		f.writeEnvelope(w, http.StatusNotFound, ErrorEnvelope{Outcome: "unknown_tenant",
			RequestID: reqID, Error: fmt.Sprintf("no tenant %q registered", name)})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, f.MaxBody+1))
	if err != nil {
		f.writeEnvelope(w, http.StatusBadRequest, ErrorEnvelope{Outcome: "bad_request",
			RequestID: reqID, Error: err.Error()})
		return
	}
	if int64(len(body)) > f.MaxBody {
		f.writeEnvelope(w, http.StatusRequestEntityTooLarge, ErrorEnvelope{Outcome: "body_too_large",
			RequestID: reqID, Error: fmt.Sprintf("body exceeds %d bytes", f.MaxBody)})
		return
	}
	seq := f.nextSeq(name)
	if reqID == "" {
		// Synthesize the deterministic identity the host already keys
		// chaos and response hashing on, so the echo is never empty.
		reqID = fmt.Sprintf("%s-%d", name, seq)
	}
	opts := []host.RequestOpt{host.WithWorkload(te.Workload), host.WithIso(te.Iso)}
	if len(body) > 0 {
		opts = append(opts, host.WithBody(body))
	}
	resp := f.host.Do(r.Context(), host.NewRequest(name, seq, opts...))
	f.writeResponse(w, resp, reqID)
}

// nextSeq hands out the tenant's next request sequence number — the
// deterministic request identity chaos injection and response hashing
// key on.
func (f *Front) nextSeq(name string) uint64 {
	v, _ := f.seqs.LoadOrStore(name, new(atomic.Uint64))
	return v.(*atomic.Uint64).Add(1) - 1
}

func (f *Front) writeResponse(w http.ResponseWriter, resp host.Response, reqID string) {
	code := StatusCode(resp.Status)
	if code == http.StatusOK {
		w.Header().Set(RequestIDHeader, reqID)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(resp.Body)
		return
	}
	eb := ErrorEnvelope{Outcome: statusOutcome(resp.Status), RequestID: reqID, Shard: f.Shard}
	if resp.Err != nil {
		eb.Error = resp.Err.Error()
		if errors.Is(resp.Err, host.ErrBreakerOpen) {
			eb.Cause = "breaker_open"
		}
	}
	f.writeEnvelope(w, code, eb)
}

// writeEnvelope stamps this front's shard name on eb and writes it.
func (f *Front) writeEnvelope(w http.ResponseWriter, code int, eb ErrorEnvelope) {
	if eb.Shard == "" {
		eb.Shard = f.Shard
	}
	WriteEnvelope(w, code, eb)
}

// WriteEnvelope serializes one ErrorEnvelope, stamping the documented
// retry hint both as the legacy Retry-After header (seconds, for generic
// clients) and as retry_after_ms in the body (for typed ones), and echoing
// the request id as a header so hedging dedup works without parsing JSON.
func WriteEnvelope(w http.ResponseWriter, code int, eb ErrorEnvelope) {
	eb.RetryAfterMS = RetryAfterMS(code)
	if eb.RetryAfterMS > 0 {
		// Backpressure is transient by construction — a breaker half-opens,
		// a queue drains — so tell well-behaved clients when to come back.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", eb.RetryAfterMS/1000))
	}
	w.Header().Set(RequestIDHeader, eb.RequestID)
	WriteJSON(w, code, eb)
}

func (f *Front) healthz(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// StatszDoc builds the shard-role StatszV1 this front serves on /statsz.
// Serve, Tenants and the ledger-derived Counters fields come from one copy
// of the host's ledger, so their conservation identities hold in every
// document, not only at quiescence.
func (f *Front) StatszDoc() StatszV1 {
	up := time.Since(f.started)
	serve, tenants, counters := f.host.Ledger(up)
	return StatszV1{
		SchemaVersion: StatszSchemaVersion,
		Role:          RoleShard,
		Shard:         f.Shard,
		UptimeSeconds: up.Seconds(),
		Draining:      f.draining.Load(),
		Serve:         &serve,
		Tenants:       tenants,
		Counters:      &counters,
		Breakers:      breakersV1(f.host.BreakerStates()),
		Chaos:         f.host.ChaosSummary(),
	}
}

func (f *Front) statsz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, f.StatszDoc())
}

// drainz is the remote drain trigger: the router POSTs here when taking a
// shard out of rotation, instead of signalling the process. Idempotent —
// it only flips /healthz; queued and in-flight work still finishes with
// real outcomes (zero dropped requests is the drain contract).
func (f *Front) drainz(w http.ResponseWriter, r *http.Request) {
	f.BeginDrain()
	WriteJSON(w, http.StatusOK, map[string]string{"status": "draining"})
}

// WriteJSON writes v as the JSON body of a code response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
