package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

// The first signal ends the context with the signal as its cause.
func TestSignalEndsContext(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := signalContext(parent)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("context still live 10 s after SIGINT")
	}
	if got := context.Cause(ctx).Error(); got != "interrupt" {
		t.Errorf("cause %q, want interrupt", got)
	}
}

// A context that ends with its parent keeps the parent's cause.
func TestParentEndsContext(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	ctx := signalContext(parent)
	cancel()
	<-ctx.Done()
	if err := context.Cause(ctx); err != context.Canceled {
		t.Errorf("cause %v, want context.Canceled", err)
	}
}

// Once the first signal has ended the context, a second one ends the
// process. The test runs itself as a child process that signals itself
// twice, and checks that the child died of the second signal.
func TestSecondSignalEndsProcess(t *testing.T) {
	if args := flag.Args(); len(args) == 1 && args[0] == "second-signal-child" {
		ctx := signalContext(context.Background())
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		<-ctx.Done()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Second)
		t.Fatal("still running 10 s after the second SIGTERM")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestSecondSignalEndsProcess$", "--", "second-signal-child")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("child: %v, want death by SIGTERM; output:\n%s", err, out)
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
		t.Fatalf("child: %v, want death by SIGTERM; output:\n%s", err, out)
	}
}

// Fail names the command once: an error from the command's own library
// already carries the name, and any other error gets it in front.
func TestFailNamesCommandOnce(t *testing.T) {
	for _, c := range []struct{ err, want string }{
		{"open x.json: no such file", "fleet: open x.json: no such file\n"},
		{"fleet: unknown backend \"carrier-pigeon\"", "fleet: unknown backend \"carrier-pigeon\"\n"},
		{"fleetwide: not ours", "fleet: fleetwide: not ours\n"},
	} {
		var out bytes.Buffer
		if code := Fail(NewFlagSet("fleet", &out), errors.New(c.err)); code != 1 || out.String() != c.want {
			t.Errorf("Fail(%q): exit %d, wrote %q; want exit 1, %q", c.err, code, out.String(), c.want)
		}
	}
}
