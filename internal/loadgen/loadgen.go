// Package loadgen is the load harness: the one place a request schedule is
// paced, issued and measured. A schedule (host.BuildSchedule over a
// []host.Class) goes through a Target — the in-process host, one shard
// over loopback HTTP, or a router over a freshly launched fleet — under
// one of two pacings, and comes back as a Point. Latency is always taken
// here, on the client side of the target, with one definition: completion
// minus the scheduled due time for an open loop, completion minus issue
// for a closed loop. Rows from different targets therefore differ only by
// the layers between them.
package loadgen

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hfi/internal/faas"
	"hfi/internal/host"
	"hfi/internal/stats"
)

// Target is something a schedule can be driven through. Do issues one
// request and reports its outcome; an error means the transport failed and
// no outcome exists. Close tears the target down and reports whatever
// cross-check the target can make of the run it just served.
type Target interface {
	Do(ctx context.Context, req host.Request) (host.Response, error)
	Close() error
}

// Pacing selects how Run issues a schedule. Rate > 0 is an open loop:
// arrivals at Rate requests per second with exponential gaps drawn from
// Seed, independent of completions — the pacing that exercises queueing
// and shedding. Otherwise Clients closed-loop clients each issue their next
// request as the previous one completes, so offered load tracks capacity.
type Pacing struct {
	Rate    float64
	Seed    int64
	Clients int
}

// Point is one run of one schedule: a row of the hockey-stick table.
// Latency percentiles and AchievedRPS cover executed requests (ok, timeout,
// fault); shed, rejected and canceled requests never ran.
type Point struct {
	RateRPS     float64 `json:"rate_rps"`          // offered rate; 0 for a closed loop
	Clients     int     `json:"clients,omitempty"` // closed loop only
	Offered     int     `json:"offered"`
	OK          uint64  `json:"ok"`
	Timeouts    uint64  `json:"timeouts"`
	Faults      uint64  `json:"faults"`
	Shed        uint64  `json:"shed"`
	Rejected    uint64  `json:"rejected"`
	Canceled    uint64  `json:"canceled"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`
	AchievedRPS float64 `json:"achieved_rps"`
	ShedRate    float64 `json:"shed_rate"`
	ElapsedS    float64 `json:"elapsed_s"`

	// ScheduleHash digests (tenant, seq, due time) of every request in
	// order, and OfferedByTenant counts them: both are pure functions of
	// (mix, total, seed, rate), which a baseline can demand exactly.
	ScheduleHash    string         `json:"schedule_hash"`
	OfferedByTenant map[string]int `json:"offered_by_tenant"`

	// Checksum is the XOR of faas.HashResponse over the OK responses —
	// independent of completion order, comparable to host.ReferenceChecksum
	// when every request ran.
	Checksum uint64 `json:"-"`

	// The router's view at the end of the run; fleet targets only.
	Shards          int     `json:"shards,omitempty"`
	RoutingHitRate  float64 `json:"routing_hit_rate,omitempty"`
	Hedges          uint64  `json:"hedges,omitempty"`
	Retries         uint64  `json:"retries,omitempty"`
	Migrations      uint64  `json:"migrations,omitempty"`
	TransportErrors uint64  `json:"transport_errors,omitempty"`
}

// Executed counts the requests that occupied a worker.
func (pt Point) Executed() uint64 { return pt.OK + pt.Timeouts + pt.Faults }

// conserved is the client-side ledger: every offered request resolved to
// exactly one outcome.
func (pt Point) conserved() error {
	if n := pt.Executed() + pt.Shed + pt.Rejected + pt.Canceled; n != uint64(pt.Offered) {
		return fmt.Errorf("conservation: accounted %d != offered %d", n, pt.Offered)
	}
	return nil
}

// Run drives reqs through t under p and measures the outcome. Transport
// failures and a ledger that does not conserve are errors; every request
// is waited for either way.
func Run(ctx context.Context, t Target, reqs []host.Request, p Pacing) (Point, error) {
	pt := Point{RateRPS: p.Rate, Offered: len(reqs), OfferedByTenant: make(map[string]int)}
	due := make([]time.Duration, len(reqs)) // all zero for a closed loop
	switch {
	case p.Rate > 0:
		rng := rand.New(rand.NewSource(p.Seed ^ 0x5deece66d))
		var at float64
		for i := range due {
			at += rng.ExpFloat64() / p.Rate * 1e9
			due[i] = time.Duration(at)
		}
	case p.Clients > 0:
		pt.Clients = p.Clients
	default:
		return Point{}, errors.New("loadgen: pacing needs a Rate or Clients")
	}
	h := fnv.New64a()
	for i, r := range reqs {
		pt.OfferedByTenant[r.Tenant.Name]++
		fmt.Fprintf(h, "%s\x00%d\x00%d\n", r.Tenant.Name, r.Seq, due[i])
	}
	pt.ScheduleHash = fmt.Sprintf("%016x", h.Sum64())

	var (
		mu       sync.Mutex
		n        [host.StatusCanceled + 1]uint64 // outcomes by status
		lats     []float64
		firstErr error
		wg       sync.WaitGroup
	)
	issue := func(i int, from time.Time) {
		resp, err := t.Do(ctx, reqs[i])
		lat := float64(time.Since(from))
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			firstErr = cmp.Or(firstErr, err)
			return
		}
		n[resp.Status]++
		switch resp.Status {
		case host.StatusOK:
			pt.Checksum ^= faas.HashResponse(int(reqs[i].Seq), resp.Body)
			fallthrough
		case host.StatusTimeout, host.StatusFault:
			lats = append(lats, lat)
		}
	}

	// Open: each request gets its own goroutine at its due time, so issue
	// times never depend on completions (and a late pacer catches up at
	// once). Closed: Clients goroutines pull the next request back to back.
	t0 := time.Now()
	if p.Rate > 0 {
		for i := range reqs {
			at := t0.Add(due[i])
			time.Sleep(time.Until(at))
			wg.Add(1)
			go func() {
				defer wg.Done()
				issue(i, at)
			}()
		}
	} else {
		var next atomic.Int64
		for c := 0; c < p.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
					issue(i, time.Now())
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if firstErr != nil {
		return Point{}, firstErr
	}

	pt.OK, pt.Timeouts, pt.Faults = n[host.StatusOK], n[host.StatusTimeout], n[host.StatusFault]
	// A closed door is backpressure too: the wire's 503 beside its 429.
	pt.Shed = n[host.StatusShed] + n[host.StatusClosed]
	pt.Rejected, pt.Canceled = n[host.StatusRejected], n[host.StatusCanceled]
	pt.ElapsedS = elapsed.Seconds()
	pt.P50Ns = stats.Percentile(lats, 50)
	pt.P99Ns = stats.Percentile(lats, 99)
	pt.P999Ns = stats.Percentile(lats, 99.9)
	if elapsed > 0 {
		pt.AchievedRPS = float64(pt.Executed()) / elapsed.Seconds()
	}
	if n := pt.Executed() + pt.Shed; n > 0 {
		pt.ShedRate = float64(pt.Shed) / float64(n)
	}
	return pt, pt.conserved()
}

// Sweep produces the open-loop latency-vs-offered-load curve: one Run per
// rate, each against a fresh target from newTarget so queue, pool and
// latency state never bleed between points. This is the measurement a
// closed loop cannot make — its offered load collapses to service capacity
// the moment the server slows, hiding the queueing delay the p99 hockey
// stick exists to show.
func Sweep(ctx context.Context, newTarget func() (Target, error), reqs []host.Request, rates []float64, seed int64) ([]Point, error) {
	pts := make([]Point, 0, len(rates))
	for _, rate := range rates {
		t, err := newTarget()
		if err != nil {
			return pts, fmt.Errorf("sweep @ %g req/s: %w", rate, err)
		}
		pt, err := Run(ctx, t, reqs, Pacing{Rate: rate, Seed: seed})
		if cerr := t.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return pts, fmt.Errorf("sweep @ %g req/s: %w", rate, err)
		}
		if h, ok := t.(*overHTTP); ok && h.fleet != nil {
			v := h.fleet
			pt.Shards, pt.RoutingHitRate = len(v.Shards), v.RoutingHitRate
			pt.Hedges, pt.Retries, pt.Migrations, pt.TransportErrors = v.Hedges, v.Retries, v.Migrations, v.TransportErrors
		}
		pts = append(pts, pt)
	}
	return pts, nil
}
