package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// stack is one in-process copy of what `nocomm serve` runs by default: a
// live metrics registry with no event sink, the runtime collector, a
// result store (disk-tiered when dir is set), an engine over it and the
// HTTP server, here behind a loopback httptest listener.
type stack struct {
	o    *obs.Observer // nil for the uninstrumented comparison stack
	st   store.Store
	eng  *engine.Engine
	srv  *serve.Server
	ts   *httptest.Server
	stop func()
	cn   *conn // for callers outside the closed loop, dialled on first use
}

// newStack builds a stack. instrumented=false builds the same stack with
// a nil Obs, the baseline of obs.overhead_us.
func newStack(dir string, instrumented bool) (*stack, error) {
	s := &stack{stop: func() {}}
	if instrumented {
		s.o = obs.New(obs.NewRegistry(), nil)
		s.stop = obs.StartRuntimeCollector(s.o, 10*time.Second)
	}
	st, err := store.New(store.Options{Dir: dir, Obs: s.o})
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("opening result store: %w", err)
	}
	s.st = st
	s.eng = engine.New(engine.Config{Obs: s.o, Store: st})
	s.srv = serve.New(serve.Config{Obs: s.o, Engine: s.eng})
	s.ts = httptest.NewServer(s.srv.Handler())
	// The readiness canary runs in the background; wait for it so its
	// evaluation never lands in a measured window.
	for deadline := time.Now().Add(10 * time.Second); !s.srv.Ready(); {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("server not ready after 10s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return s, nil
}

func (s *stack) close() {
	if s.cn != nil {
		s.cn.close()
	}
	s.ts.Close()
	s.stop()
	s.st.Close()
}

// counters snapshots the registry's counters (empty without Obs).
func (s *stack) counters() map[string]int64 {
	if s.o == nil {
		return map[string]int64{}
	}
	return s.o.Metrics.Snapshot().Counters
}

// request is one HTTP request of an op.
type request struct {
	path string
	body []byte
}

// response is the status and full body of one answered request.
type response struct {
	status int
	body   []byte
}

// dial opens a connection to the server's loopback listener.
func (s *stack) dial() (*conn, error) { return dial(s.ts.Listener.Addr().String()) }

// post sends the request over loopback TCP on the stack's own connection
// and returns the reply in a buffer of its own. A transport error or a
// non-200 status is an error.
func (s *stack) post(rq request) (response, error) {
	if s.cn == nil {
		cn, err := s.dial()
		if err != nil {
			return response{}, err
		}
		s.cn = cn
	}
	status, body, err := s.cn.post(rq.path, rq.body, nil)
	if err != nil {
		s.cn.close()
		s.cn = nil
		return response{}, fmt.Errorf("%s: %w", rq.path, err)
	}
	return checkStatus(rq, response{status: status, body: body})
}

func checkStatus(rq request, r response) (response, error) {
	if r.status != http.StatusOK {
		return r, fmt.Errorf("%s: status %d: %.200s", rq.path, r.status, r.body)
	}
	return r, nil
}

// serveDirect runs the request through the server's handler into a
// recorder: the serve layer without TCP.
func (s *stack) serveDirect(rq request) (response, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
	s.srv.Handler().ServeHTTP(rec, req)
	return checkStatus(rq, response{status: rec.Code, body: rec.Body.Bytes()})
}

// requestCtx mirrors the handler's per-request budget.
func requestCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), serve.DefaultDeadline)
}
