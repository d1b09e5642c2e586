package serve

import (
	"net/http"
	"net/http/pprof"
)

// ProfileHandler serves the runtime profiles of net/http/pprof under
// /debug/pprof/. The commands mount it on a listener of its own (their
// -pprof flag), never on Server.Handler: profiles expose the process,
// so they must not be reachable wherever the API is.
func ProfileHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
