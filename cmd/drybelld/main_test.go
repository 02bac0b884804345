package main

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/pkg/drybell"
)

// TestValidateFlags pins the fail-fast surface: every node-role flag
// mismatch is a usage error before any state is touched, and every
// legitimate single-node or multi-node invocation passes.
func TestValidateFlags(t *testing.T) {
	tests := []struct {
		name        string
		mode        string
		coordinator string
		root        string
		resume      bool
		minWorkers  int
		inc         incrementalFlags
		wantErr     string // substring; empty means valid
	}{
		{name: "serve defaults", mode: "serve"},
		{name: "train defaults", mode: "train"},
		{name: "train coordinator", mode: "train", minWorkers: 2},
		{name: "worker", mode: "worker", coordinator: "http://host:9090"},
		{name: "resume with root", mode: "train", root: "/tmp/x", resume: true},
		{name: "continuous train", mode: "train", inc: incrementalFlags{continuous: true, watch: time.Second}},
		{name: "continuous with promote-url", mode: "train",
			inc: incrementalFlags{continuous: true, watch: time.Second, promoteURL: "http://host:8080", rounds: 3, minDevAcc: 0.9}},
		{name: "append with root", mode: "append", root: "/tmp/x", inc: incrementalFlags{appendDocs: 100}},

		{name: "worker without coordinator", mode: "worker", wantErr: "-coordinator"},
		{name: "worker with resume", mode: "worker", coordinator: "http://host:9090", resume: true, wantErr: "-resume"},
		{name: "worker with min-workers", mode: "worker", coordinator: "http://host:9090", minWorkers: 2, wantErr: "-min-workers"},
		{name: "serve with coordinator", mode: "serve", coordinator: "http://host:9090", wantErr: "-coordinator"},
		{name: "train with coordinator", mode: "train", coordinator: "http://host:9090", wantErr: "-coordinator"},
		{name: "serve with min-workers", mode: "serve", minWorkers: 2, wantErr: "-min-workers"},
		{name: "negative min-workers", mode: "train", minWorkers: -1, wantErr: "-min-workers"},
		{name: "resume without root", mode: "train", resume: true, wantErr: "-resume"},

		{name: "continuous serve", mode: "serve", inc: incrementalFlags{continuous: true, watch: time.Second}, wantErr: "-continuous"},
		{name: "continuous without watch", mode: "train", inc: incrementalFlags{continuous: true}, wantErr: "-watch"},
		{name: "negative rounds", mode: "train", inc: incrementalFlags{continuous: true, watch: time.Second, rounds: -1}, wantErr: "-rounds"},
		{name: "bad dev accuracy", mode: "train", inc: incrementalFlags{continuous: true, watch: time.Second, minDevAcc: 1.5}, wantErr: "-min-dev-accuracy"},
		{name: "promote-url without continuous", mode: "train", inc: incrementalFlags{promoteURL: "http://host:8080"}, wantErr: "-promote-url"},
		{name: "append without root", mode: "append", wantErr: "-root"},
		{name: "append with resume", mode: "append", root: "/tmp/x", resume: true, wantErr: "-mode append"},
		{name: "append count on train", mode: "train", inc: incrementalFlags{appendDocs: 10}, wantErr: "-append"},
		{name: "negative append", mode: "append", root: "/tmp/x", inc: incrementalFlags{appendDocs: -1}, wantErr: "-append"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := validateFlags(tt.mode, tt.coordinator, tt.root, tt.resume, tt.minWorkers, tt.inc)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags: want error mentioning %q, got nil", tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("validateFlags: error %q does not mention %q", err, tt.wantErr)
			}
		})
	}
}

// TestServeRefusesUnreadableLabelModel: only a missing label model means the
// daemon serves votes alone. A read that fails must stop startup with an
// error naming the file, not pass for absence.
func TestServeRefusesUnreadableLabelModel(t *testing.T) {
	const model = "topic-classifier"
	fsys := dfs.NewFaultFS(dfs.NewMem(), 1)
	fsys.FailNext(dfs.OpRead, labelModelPath(model), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // should startup get past the read, serve nothing
	err := serveHTTP(ctx, "127.0.0.1:0", fsys, nil, drybell.NewObserver(), model, nil,
		1, time.Millisecond, 1, 1, time.Second, time.Second, 1, time.Second, false)
	if !errors.Is(err, dfs.ErrInjected) || !strings.Contains(err.Error(), labelModelPath(model)) {
		t.Fatalf("serveHTTP over an unreadable label model = %v, want the injected read fault naming %s",
			err, labelModelPath(model))
	}
}
