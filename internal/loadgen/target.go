package loadgen

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"hfi/internal/cluster"
	"hfi/internal/host"
	"hfi/internal/httpfront"
)

// InProcess drives s directly — no wire, no front. Close closes s.
func InProcess(s *host.Server) Target { return inProcess{s} }

type inProcess struct{ s *host.Server }

func (t inProcess) Do(ctx context.Context, req host.Request) (host.Response, error) {
	return t.s.Do(ctx, req), nil
}

func (t inProcess) Close() error {
	t.s.Close()
	return nil
}

// overHTTP is a front (shard or router — the wire contract is the same)
// served on a loopback listener and driven through the typed client.
type overHTTP struct {
	client *httpfront.Client
	hs     *http.Server
	stop   func() error               // what Close does before the listener goes
	fleet  *httpfront.ClusterStatszV1 // the router's end-of-run view; Fleet only
}

func serveLoopback(h http.Handler, stop func() error) (*overHTTP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns once Close shuts the listener down
	return &overHTTP{client: httpfront.NewClient("http://" + ln.Addr().String()), hs: hs, stop: stop}, nil
}

// Do puts the request on the wire with an explicit body — the schedule's
// own Body, or Tenant.MakeRequest(Seq) — so what the guest sees is fixed
// by the schedule, not by the order requests happen to reach the front.
func (t *overHTTP) Do(ctx context.Context, req host.Request) (host.Response, error) {
	body := req.Body
	if body == nil {
		body = req.Tenant.MakeRequest(int(req.Seq))
	}
	res, err := t.client.Invoke(ctx, req.Tenant.Name, body, "")
	if err != nil {
		return host.Response{}, err
	}
	for st := host.StatusOK; st <= host.StatusCanceled; st++ {
		if httpfront.StatusCode(st) == res.Code {
			return host.Response{Status: st, Body: res.Body}, nil
		}
	}
	return host.Response{}, fmt.Errorf("unexpected HTTP %d invoking %s", res.Code, req.Tenant.Name)
}

// Close runs after every request has its response, so the listener and
// its connections are closed outright: a graceful Shutdown would only wait
// out connections the client dialled ahead and never used.
func (t *overHTTP) Close() error {
	err := t.stop()
	t.client.CloseIdle()
	return cmp.Or(err, t.hs.Close())
}

// Shard serves a fresh host under cfg behind an httpfront.Front routing
// reg, and drives it over loopback HTTP.
func Shard(cfg host.Config, reg map[string]httpfront.Tenant) (Target, error) {
	srv := host.New(cfg)
	t, err := serveLoopback(httpfront.New(srv, reg).Handler(), func() error { srv.Close(); return nil })
	if err != nil {
		srv.Close()
		return nil, err
	}
	return t, nil
}

// Fleet launches a fresh cluster — o.N shard subprocesses behind a router
// — and drives the router over loopback HTTP. Close settles the fleet
// ledger: every live shard must have admitted exactly the requests the
// router delivered to it.
func Fleet(o cluster.LaunchOpts) (Target, error) {
	cl, err := cluster.Launch(o)
	if err != nil {
		return nil, err
	}
	var t *overHTTP
	t, err = serveLoopback(cl.Router.Handler(), func() error {
		defer cl.Close()
		rt := cl.Router
		if !rt.Quiesce(10 * time.Second) {
			return errors.New("router did not quiesce")
		}
		rt.ScrapeOnce() // refresh admitted counters one last time
		t.fleet = rt.StatszDoc().Cluster
		for _, sh := range t.fleet.Shards {
			// A dead member's counters are unobservable.
			if sh.Healthy && sh.Delivered != sh.Admitted {
				return fmt.Errorf("fleet ledger: shard %s delivered %d != admitted %d",
					sh.Name, sh.Delivered, sh.Admitted)
			}
		}
		return nil
	})
	if err != nil {
		cl.Close()
		return nil, err
	}
	return t, nil
}
