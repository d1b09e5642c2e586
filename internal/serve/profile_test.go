package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"blockpar/internal/machine"
)

// TestProfileHandlerIsSeparate checks the profiles are served by
// ProfileHandler and by nothing on the API handler.
func TestProfileHandlerIsSeparate(t *testing.T) {
	rec := httptest.NewRecorder()
	ProfileHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Errorf("profile handler: GET /debug/pprof/cmdline = %d with %d bytes, want 200 with the command line", rec.Code, rec.Body.Len())
	}

	srv := NewServer(NewRegistry(machine.Embedded()), Options{})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("API handler: GET %s = %d, want 404", path, rec.Code)
		}
	}
}
