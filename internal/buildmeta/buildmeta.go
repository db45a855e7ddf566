// Package buildmeta stamps benchmark artifacts with the provenance needed
// to compare them across commits. A BENCH_*.json trajectory is only a
// trajectory if each point says which commit produced it, on how many
// processors, and when — without those three, cross-PR comparison is
// guesswork (two sidecars with different throughput might differ by code,
// by machine shape, or by age, and nothing in the file says which).
package buildmeta

import (
	"context"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// Meta identifies one benchmark run. It is embedded verbatim (as "meta")
// in every JSON sidecar the repo's benchmark tools emit.
type Meta struct {
	// Commit is the VCS revision of the benchmarked tree, or "unknown"
	// when neither the build stamp, the LCRQ_COMMIT environment variable,
	// nor a git checkout is available.
	Commit string `json:"commit"`
	// Dirty reports uncommitted changes in the benchmarked tree (only
	// known when the commit came from the Go build stamp).
	Dirty bool `json:"dirty,omitempty"`
	// GoMaxProcs is runtime.GOMAXPROCS at collection time — the processor
	// budget every throughput number in the artifact was measured under.
	GoMaxProcs int `json:"gomaxprocs"`
	// GoVersion is the runtime's version string.
	GoVersion string `json:"go_version"`
	// Timestamp is the collection time, RFC 3339 in UTC.
	Timestamp string `json:"timestamp"`
}

// Collect gathers the current process's build metadata. The commit is
// resolved in order of reliability: the LCRQ_COMMIT environment variable
// (CI knows exactly what it checked out), the Go toolchain's VCS build
// stamp (absent under `go run` and `go test`), then `git rev-parse HEAD`
// with a short timeout (covers the common in-checkout invocations).
func Collect() Meta {
	m := Meta{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	m.Commit, m.Dirty = commit()
	return m
}

// commit resolves the benchmarked revision. The environment override is
// read on every call; the build stamp and git fallbacks cannot change within
// a process, so they are resolved once (forking git on every Collect made it
// the bulk of constructing a server).
func commit() (rev string, dirty bool) {
	if env := strings.TrimSpace(os.Getenv("LCRQ_COMMIT")); env != "" {
		return env, false
	}
	return vcsCommit()
}

var vcsCommit = sync.OnceValues(func() (rev string, dirty bool) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			return rev, dirty
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err == nil {
		if rev = strings.TrimSpace(string(out)); rev != "" {
			return rev, false
		}
	}
	return "unknown", false
})
