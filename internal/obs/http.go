package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewHandler bundles the observability endpoints over one registry:
//
//	/metrics     Prometheus text exposition format
//	/debug/vars  the same samples as one JSON object
//	/debug/pprof the standard runtime profiles (heap, goroutine, CPU, ...)
func NewHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		reg.WriteVars(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability endpoint (see StartServer).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartServer listens on addr (e.g. "127.0.0.1:9410", or ":0" for an
// ephemeral port) and serves NewHandler(reg) until Close. It is the
// -metrics-addr implementation shared by qswitchctl (coordinator and
// worker), switchbench and switchsim.
func StartServer(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewHandler(reg), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server. Safe on a nil receiver.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
