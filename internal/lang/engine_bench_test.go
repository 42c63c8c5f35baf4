package lang_test

// BenchmarkEngineWork compares the execution engines on a pure
// interpreter-bound workload (nested loops, closure calls, arithmetic)
// with no kernel operations, isolating per-node evaluation cost:
//
//	go test ./internal/lang -bench BenchmarkEngineWork -run xxx

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/lang"
)

const profWorkCap = `#lang shill/cap

provide work : {} -> void;

add3 = fun(a, b, c) { a + b + c; };
inner = fun(k) { if k == 0 then { 0; } else { add3(k, k, k); } };

work = fun() {
  for a in range(250) {
    for b in range(100) {
      inner(b);
    }
  }
};
`

const profWorkAmbient = `#lang shill/ambient
require "w.cap";
work();
`

func BenchmarkEngineWork(b *testing.B) {
	for _, eng := range []lang.Engine{lang.EngineTreeWalk, lang.EngineCompiled} {
		b.Run(eng.String(), func(b *testing.B) {
			k := kernel.New()
			k.InstallShillModule()
			defer k.Shutdown()
			k.FS.WriteFile("/dev/console", nil, 0o666, 0, 0)
			proc := k.NewProc(0, 0)
			cache := lang.NewCompileCache()
			loader := lang.MapLoader{"w.cap": profWorkCap}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := lang.NewInterp(proc, loader)
				it.SetEngine(eng)
				it.CompileCache = cache
				if err := it.RunAmbient("w.ambient", profWorkAmbient); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
