package main

import (
	"bufio"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/eoml/eoml"
)

// argsEnv carries the command line for a re-exec'd copy of this test
// binary that runs main() instead of the tests.
const argsEnv = "EOML_WORKER_MAIN_ARGS"

// TestMain turns this test binary into an eoml-worker process when
// argsEnv is set (the helper-process pattern), exiting 0 when main
// returns.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{os.Args[0]}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMDrainsAndDeregisters: a worker stopped with SIGTERM, as
// Slurm or an orchestrator stops it, drains, deregisters and exits 0,
// so the coordinator forgets it at once instead of after its heartbeat
// timeout.
func TestSIGTERMDrainsAndDeregisters(t *testing.T) {
	const heartbeatTimeout = 30 * time.Second
	coord := eoml.NewFleetCoordinator(eoml.FleetConfig{HeartbeatTimeout: heartbeatTimeout})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), argsEnv+"=-coordinator "+srv.URL+" -id sigterm-worker -prefetch 0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill() }() // no-op once it has exited

	// main prints its serving line only after registration succeeded.
	lines := bufio.NewScanner(stdout)
	for lines.Scan() && !strings.Contains(lines.Text(), "registered with") {
	}
	if ws := coord.Workers(); len(ws) != 1 || ws[0].ID != "sigterm-worker" {
		t.Fatalf("workers after start = %+v, want sigterm-worker", ws)
	}

	signaled := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for lines.Scan() {
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("worker exit after SIGTERM: %v, want status 0", err)
	}
	if ws := coord.Workers(); len(ws) != 0 {
		t.Fatalf("workers after SIGTERM = %+v, want none", ws)
	}
	if d := time.Since(signaled); d >= heartbeatTimeout {
		t.Fatalf("worker left after %s, not before the %s heartbeat timeout", d, heartbeatTimeout)
	}
}
