package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// runMain runs main with stdout redirected into a pipe and returns what
// it printed.
func runMain(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	main()
	w.Close()
	return <-out
}

// TestLiveIngestBooksBalance smoke-runs the example: after Drain, the
// served and dropped events the sink counted must add up to the
// drained result's arrivals.
func TestLiveIngestBooksBalance(t *testing.T) {
	if out := runMain(t); !strings.Contains(out, "books balance: true") {
		t.Errorf("books do not balance:\n%s", out)
	}
}
