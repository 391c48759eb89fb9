package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// The live-telemetry HTTP endpoint: the seed of the deferred tputlabd
// campaign server's monitoring surface (ROADMAP). While a campaign runs,
// `-telemetry-addr` serves:
//
//	/dump           the full registry dump (the -metrics-json document;
//	                in-progress spans report elapsed time so far)
//	/trace          the span tree as Chrome trace_event JSON
//	/debug/pprof/   net/http/pprof (profiles with the goroutine labels
//	                the pipeline workers carry)
//
// The endpoint serves each document in exactly one encoding: spans and
// series are sections of /dump, not routes of their own. Everything is
// read-only and lock-bounded: a scrape snapshots the registry exactly
// like -metrics-json does, so scraping can never perturb results (the
// determinism contract extends to the endpoint).

// TelemetryServer is a running telemetry endpoint. Create with
// Registry.ServeTelemetry; stop with Close.
type TelemetryServer struct {
	srv *http.Server
	ln  net.Listener
}

// ServeTelemetry starts the telemetry endpoint on addr (host:port;
// ":0" picks a free port — read it back with Addr). The server runs on
// its own goroutine until Close. On a nil registry it returns an
// error: an endpoint over a disabled registry would serve nothing.
func (r *Registry) ServeTelemetry(addr string) (*TelemetryServer, error) {
	if r == nil {
		return nil, fmt.Errorf("obs: telemetry endpoint needs an enabled registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: telemetry listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "tputlab telemetry\n\n/dump\n/trace\n/debug/pprof/\n")
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteTrace(w)
	})
	mux.HandleFunc("/dump", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ts := &TelemetryServer{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go func() { _ = ts.srv.Serve(ln) }()
	return ts, nil
}

// Addr returns the listening address (useful with ":0").
func (t *TelemetryServer) Addr() string {
	if t == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Close stops the endpoint. Safe on nil.
func (t *TelemetryServer) Close() error {
	if t == nil {
		return nil
	}
	return t.srv.Close()
}
