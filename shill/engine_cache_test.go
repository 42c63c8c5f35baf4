package shill

import (
	"sync"
	"testing"
)

// The compiled-script cache is machine-wide and content-hash-keyed:
// sessions share warm compilations, concurrent warm-up is race-clean,
// and updating a script under the same name can never execute a stale
// compilation (a new content hash is a new cache entry).

const cacheHello = "#lang shill/ambient\n\nappend(stdout, \"hi\\n\");\n"

func TestCompileCacheContentHash(t *testing.T) {
	m := newTestMachine(t, WithEngine(EngineCompiled))
	m.AddScript("hello.ambient", cacheHello)
	s := m.NewSession()
	defer s.Close()

	res, err := s.Run(bg, Script{Name: "hello.ambient"})
	if err != nil || res.Console != "hi\n" {
		t.Fatalf("first run = %q, %v", res.Console, err)
	}
	hits0, misses0 := m.CompileCacheStats()
	if misses0 == 0 {
		t.Fatal("first compiled run recorded no cache miss")
	}

	res, err = s.Run(bg, Script{Name: "hello.ambient"})
	if err != nil || res.Console != "hi\n" {
		t.Fatalf("second run = %q, %v", res.Console, err)
	}
	hits1, misses1 := m.CompileCacheStats()
	if misses1 != misses0 {
		t.Fatalf("second run of identical source recompiled: misses %d -> %d", misses0, misses1)
	}
	if hits1 <= hits0 {
		t.Fatalf("second run did not hit the cache: hits %d -> %d", hits0, hits1)
	}
}

func TestTreeWalkLeavesCompileCacheCold(t *testing.T) {
	m := newTestMachine(t, WithEngine(EngineTreeWalk))
	m.AddScript("hello.ambient", cacheHello)
	s := m.NewSession()
	defer s.Close()
	if _, err := s.Run(bg, Script{Name: "hello.ambient"}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := m.CompileCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("tree-walk run touched the compile cache: hits=%d misses=%d", hits, misses)
	}
}

func TestCompileCacheConcurrentWarmup(t *testing.T) {
	// 16 sessions race to warm the same script. Racing first compiles
	// may each miss (compiles run outside the cache's lock),
	// but every run must succeed with the right output, and once warm
	// the miss count stays fixed.
	m := newTestMachine(t, WithEngine(EngineCompiled))
	m.AddScript("warm.ambient", "#lang shill/ambient\n\nappend(stdout, \"warm\\n\");\n")

	const sessions = 16
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	consoles := make([]string, sessions)
	for i := 0; i < sessions; i++ {
		s := m.NewSession()
		defer s.Close()
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			res, err := s.Run(bg, Script{Name: "warm.ambient"})
			errs[i] = err
			if res != nil {
				consoles[i] = res.Console
			}
		}(i, s)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil || consoles[i] != "warm\n" {
			t.Fatalf("session %d: console %q, err %v", i, consoles[i], errs[i])
		}
	}
	hits, misses := m.CompileCacheStats()
	if hits+misses < sessions {
		t.Fatalf("cache saw %d lookups across %d sessions", hits+misses, sessions)
	}

	// The cache is now warm: one more session is a pure hit.
	s := m.NewSession()
	defer s.Close()
	if _, err := s.Run(bg, Script{Name: "warm.ambient"}); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := m.CompileCacheStats()
	if misses2 != misses {
		t.Fatalf("warm cache recompiled: misses %d -> %d", misses, misses2)
	}
	if hits2 <= hits {
		t.Fatalf("warm run did not hit: hits %d -> %d", hits, hits2)
	}
}

func TestCompileCacheScriptUpdateNotStale(t *testing.T) {
	// Re-registering a script under the same name must execute the new
	// source, never a stale compilation; re-registering the original
	// source afterwards is a pure content-hash hit.
	v1 := "#lang shill/ambient\n\nappend(stdout, \"v1\\n\");\n"
	v2 := "#lang shill/ambient\n\nappend(stdout, \"v2\\n\");\n"

	m := newTestMachine(t, WithEngine(EngineCompiled))
	m.AddScript("u.ambient", v1)
	s := m.NewSession()
	defer s.Close()

	run := func(want string) {
		t.Helper()
		res, err := s.Run(bg, Script{Name: "u.ambient"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Console != want {
			t.Fatalf("console = %q, want %q (stale compilation executed?)", res.Console, want)
		}
	}
	run("v1\n")
	m.AddScript("u.ambient", v2)
	run("v2\n")
	_, missesAfterV2 := m.CompileCacheStats()

	// Reverting to v1 must not recompile: the v1 entry is still keyed
	// by its content hash.
	m.AddScript("u.ambient", v1)
	run("v1\n")
	if _, misses := m.CompileCacheStats(); misses != missesAfterV2 {
		t.Fatalf("reverting to cached source recompiled: misses %d -> %d", missesAfterV2, misses)
	}
}
