package main

import (
	"runtime"
	"runtime/debug"
	"time"
)

// stamp says where and how a result was taken, so results form a
// trajectory that can be read later (ROADMAP item 1).
type stamp struct {
	Time       string  `json:"time"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	Clients    int     `json:"clients"`
	Flush      string  `json:"flush_policy"`
	// DataFS is the filesystem the store's directory lives on: fsync cost
	// belongs to it, not to the program.
	DataFS string `json:"data_fs"`
}

func newStamp(o options) stamp {
	return stamp{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Quick:      o.quick,
		Clients:    clients,
		Flush:      flushPolicy,
		DataFS:     fsName(o.root),
	}
}

// commit is the git revision the binary was built from, as the go tool
// stamped it ("unknown" outside a git checkout, "+dirty" with local
// changes).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}
