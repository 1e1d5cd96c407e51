package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/campaignd"
)

// TestSubmitWaitMatchesSolo drives the service verbs in process — an
// httptest coordinator, two `work` loops and one `submit -wait` — and
// requires the merged report's stdout to be byte-identical to a solo
// `-inject` run of the same spec.
func TestSubmitWaitMatchesSolo(t *testing.T) {
	spec := []string{"-bench", "g721dec", "-mode", "dup", "-inject", "60", "-seed", "7"}

	var solo bytes.Buffer
	if err := runSolo(spec, &solo, io.Discard); err != nil {
		t.Fatal(err)
	}
	if solo.Len() == 0 {
		t.Fatal("solo run printed nothing")
	}

	co, err := campaignd.New(campaignd.Config{Dir: t.TempDir(), LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := []string{"-coordinator", srv.URL, "-id", id, "-poll", "20ms", "-workers", "1"}
			if err := runWork(ctx, args, io.Discard, io.Discard); err != nil {
				t.Error(err)
			}
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	var svc bytes.Buffer
	args := append([]string{"-coordinator", srv.URL, "-shards", "3", "-wait"}, spec...)
	waitCtx, stop := context.WithTimeout(ctx, 2*time.Minute)
	defer stop()
	if err := runSubmit(waitCtx, args, &svc, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(svc.Bytes(), solo.Bytes()) {
		t.Fatalf("submit -wait stdout differs from solo -inject:\n--- solo\n%s--- submit\n%s", solo.String(), svc.String())
	}
}

// TestServeRejectsShortLeaseTTL requires a lease TTL too short for the idle
// sweep's quarter-TTL ticker — zero and negative included — to be a usage
// error (exit 2) rather than a ticker panic after the listener is up.
func TestServeRejectsShortLeaseTTL(t *testing.T) {
	for _, ttl := range []string{"0", "-1s", "3ns"} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := runServe(ctx, []string{"-lease-ttl", ttl, "-addr", "127.0.0.1:0", "-dir", t.TempDir()}, io.Discard, io.Discard)
		cancel()
		if !errors.As(err, new(usageError)) {
			t.Errorf("-lease-ttl %s: got %v, want a usage error", ttl, err)
		}
	}
}
