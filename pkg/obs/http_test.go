package obs

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// getWhenUp GETs url, retrying while the listener is still coming up.
func getWhenUp(url string) (*http.Response, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil || time.Now().After(deadline) {
			return resp, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeDrainsInFlightOnCancel: ending the context shuts the server
// down, lets the request already in flight finish, and returns nil.
func TestServeDrainsInFlightOnCancel(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	srv := &http.Server{Addr: freeAddr(t), Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(arrived)
		<-release
		io.WriteString(w, "drained")
	})}
	draining := make(chan struct{})
	srv.RegisterOnShutdown(func() { close(draining) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, srv, 10*time.Second, NewLogger(io.Discard, LevelInfo)) }()

	type reply struct {
		body string
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := getWhenUp("http://" + srv.Addr)
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replied <- reply{string(b), err}
	}()

	select {
	case <-arrived:
	case r := <-replied:
		t.Fatalf("request never reached the handler: %v", r.err)
	}
	cancel()
	select {
	case <-draining:
	case err := <-served:
		t.Fatalf("Serve = %v before the in-flight request finished, want a drain", err)
	}
	close(release)
	if r := <-replied; r.err != nil || r.body != "drained" {
		t.Errorf("in-flight request = %q, %v; want it served during the drain", r.body, r.err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve = %v, want nil after a clean drain", err)
	}
}

// TestServeReturnsListenError: a port already bound is reported, not
// waited on.
func TestServeReturnsListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := &http.Server{Addr: ln.Addr().String(), Handler: http.NotFoundHandler()}
	err = Serve(context.Background(), srv, time.Second, NewLogger(io.Discard, LevelInfo))
	if err == nil || errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve on a bound port = %v, want the listen error", err)
	}
}

// serveChildEnv switches this test binary into the child of
// TestServeSecondSignalKills.
const serveChildEnv = "OBS_SERVE_SIGNAL_CHILD"

// serveChild serves one request that never finishes and prints "ready"
// once it is in flight and "draining" once the shutdown has begun.
func serveChild() {
	srv := &http.Server{Addr: os.Getenv(serveChildEnv), Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		os.Stdout.WriteString("ready\n")
		select {}
	})}
	srv.RegisterOnShutdown(func() { os.Stdout.WriteString("draining\n") })
	go getWhenUp("http://" + srv.Addr)
	Serve(context.Background(), srv, time.Minute, NewLogger(io.Discard, LevelInfo))
	os.Exit(0)
}

// TestServeSecondSignalKills: the first SIGINT starts the drain; default
// signal handling is back by then, so a second SIGINT kills the process
// instead of waiting out a drain that would take a minute.
func TestServeSecondSignalKills(t *testing.T) {
	if os.Getenv(serveChildEnv) != "" {
		serveChild()
	}
	if runtime.GOOS == "windows" {
		t.Skip("needs POSIX signals")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeSecondSignalKills$")
	cmd.Env = append(os.Environ(), serveChildEnv+"="+freeAddr(t))
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer timer.Stop()

	lines := bufio.NewScanner(out)
	for _, want := range []string{"ready", "draining"} {
		if !lines.Scan() || strings.TrimSpace(lines.Text()) != want {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child printed %q, want %q", lines.Text(), want)
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("child exited with %v, want death by SIGINT", err)
	}
	if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
		t.Errorf("child exit = %v, want killed by the second SIGINT", err)
	}
}

// TestDecodeReplyIsStrictAndBounded: a peer's reply is held to
// json.Unmarshal's strictness, and one longer than its limit fails with an
// error that names the limit instead of being cut short.
func TestDecodeReplyIsStrictAndBounded(t *testing.T) {
	var v struct{ A int }
	if err := DecodeReply(strings.NewReader(`{"A":1}`), 7, &v); err != nil || v.A != 1 {
		t.Fatalf("DecodeReply of a reply at its limit = %v (A=%d)", err, v.A)
	}
	if err := DecodeReply(strings.NewReader(`{"A":1}xyz`), 1<<10, &v); err == nil {
		t.Error("DecodeReply took trailing bytes after the value")
	}
	err := DecodeReply(strings.NewReader(`{"A":1} `), 7, &v)
	if err == nil || !strings.Contains(err.Error(), "limit of 7 bytes") {
		t.Errorf("DecodeReply of a reply over its limit = %v, want an error naming the limit", err)
	}
	if b, err := ReadReply(strings.NewReader("12345678"), 8); err != nil || string(b) != "12345678" {
		t.Errorf("ReadReply at the limit = %q, %v", b, err)
	}
}
