package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowClientIsDisconnected: a connection that never finishes its
// request line is closed by the server rather than held forever. The
// constants are pinned as built; the wait itself runs at a shortened
// ReadHeaderTimeout so the suite does not sleep ten seconds.
func TestSlowClientIsDisconnected(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("timeouts not set: readHeader %v idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("SSE streams and long uploads need unbounded bodies: write %v read %v", srv.WriteTimeout, srv.ReadTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil { // ...and never the rest
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server answers a header timeout by closing (possibly after a 408):
	// reading to EOF before the deadline is the pass condition.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open after the header timeout: %v", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
}
