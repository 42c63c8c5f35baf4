package lang

import (
	"fmt"
	"testing"
)

// A long-lived machine sees an unbounded stream of distinct sources
// (every distinct arg vector shilld splices in is one); the cache must
// stay within CompileCacheLimit while a script in steady use stays warm.
func TestCompileCacheBounded(t *testing.T) {
	c := NewCompileCache()
	const hot = "#lang shill/ambient\n\nx = 1;\n"
	if _, err := c.Get(hot); err != nil {
		t.Fatal(err)
	}
	const distinct = 3 * CompileCacheLimit
	for i := 0; i < distinct; i++ {
		if _, err := c.Get(fmt.Sprintf("#lang shill/ambient\nargs = [\"%d\"];\n", i)); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			if _, hit, _ := c.get(hot); !hit {
				t.Fatalf("hot script evicted after %d one-off sources", i)
			}
		}
		if n := c.Len(); n > CompileCacheLimit {
			t.Fatalf("cache holds %d programs after %d sources, limit %d", n, i+1, CompileCacheLimit)
		}
	}
	hits, misses := c.Stats()
	if misses != distinct+1 || hits != distinct/64 {
		t.Fatalf("hits=%d misses=%d, want %d and %d", hits, misses, distinct/64, distinct+1)
	}
}
