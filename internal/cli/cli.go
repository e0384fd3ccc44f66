// Package cli is what every command under cmd/ shares around its run
// function: the process entry points (with or without a context that
// ends on SIGINT or SIGTERM), the exit status of a flag-parse failure,
// the one-line report of any other error, and writing an output file.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// Func is a command's whole program: it parses args, writes only to the
// writers it is given and returns the process exit status.
type Func func(ctx context.Context, args []string, stdout, stderr io.Writer) int

// Main runs a command that never waits on its context: run gets
// context.Background, and SIGINT and SIGTERM keep their usual action.
func Main(run Func) { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// MainStoppable runs a command that stops or drains when its context
// ends: the first SIGINT or SIGTERM ends it, with the signal's name
// ("interrupt", "terminated") as its context.Cause. Both signals then get
// back the action the process started with, so a second one ends the
// process at once (unless it started ignored, as a non-interactive shell
// starts a background job's SIGINT).
func MainStoppable(run Func) {
	os.Exit(run(signalContext(context.Background()), os.Args[1:], os.Stdout, os.Stderr))
}

// signalContext returns a context that ends on the first SIGINT or
// SIGTERM or with parent, and then stops catching both signals.
func signalContext(parent context.Context) context.Context {
	ctx, cancel := context.WithCancelCause(parent)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-ch:
			signal.Stop(ch)
			cancel(errors.New(s.String()))
		case <-ctx.Done():
			signal.Stop(ch)
		}
	}()
	return ctx
}

// NewFlagSet returns a flag set named after the command that writes
// usage and parse errors to stderr and returns them from Parse.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// ParseStatus is the exit status for an error from FlagSet.Parse: 0 for
// -h or -help, 2 for anything else, as flag.ExitOnError exits.
func ParseStatus(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// Fail writes "name: err" to the flag set's output and returns exit
// status 1. An error that already starts with "name: " (the command's
// library of the same name) is written as it is, so the name shows once.
func Fail(fs *flag.FlagSet, err error) int {
	msg := err.Error()
	if prefix := fs.Name() + ": "; !strings.HasPrefix(msg, prefix) {
		msg = prefix + msg
	}
	fmt.Fprintln(fs.Output(), msg)
	return 1
}

// WriteFile streams write into a freshly created file at path.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
