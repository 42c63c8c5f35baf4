package sandbox

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/kernel"
	"repro/internal/netstack"
	"repro/internal/priv"
	"repro/internal/prof"
	"repro/internal/stdlib"
)

// world builds a kernel with the module installed, a couple of binaries,
// and a data tree.
func world(t *testing.T) (*kernel.Kernel, *kernel.Proc) {
	t.Helper()
	k := kernel.New()
	k.InstallShillModule()
	t.Cleanup(k.Shutdown)
	k.RegisterBinary("reader", func(p *kernel.Proc, argv []string) int {
		if len(argv) < 2 {
			return 2
		}
		fd, err := p.OpenAt(kernel.AtCWD, argv[1], kernel.ORead, 0)
		if err != nil {
			p.Write(2, []byte("reader: "+err.Error()+"\n"))
			return 1
		}
		buf := make([]byte, 4096)
		n, _ := p.Read(fd, buf)
		p.Write(1, buf[:n])
		return 0
	})
	k.RegisterBinary("writer", func(p *kernel.Proc, argv []string) int {
		fd, err := p.OpenAt(kernel.AtCWD, argv[1], kernel.OCreate|kernel.OWrite, 0o644)
		if err != nil {
			return 1
		}
		p.Write(fd, []byte("written"))
		return 0
	})
	k.RegisterBinary("dialer", func(p *kernel.Proc, argv []string) int {
		sock, err := p.Socket(netstack.DomainIP)
		if err != nil {
			return 1
		}
		if err := p.Connect(sock, "99"); err != nil {
			return 2
		}
		return 0
	})
	files := map[string]string{
		"/bin/reader":    "#!bin:reader\n",
		"/bin/writer":    "#!bin:writer\n",
		"/bin/dialer":    "#!bin:dialer\n",
		"/data/in.txt":   "payload",
		"/data/priv.txt": "secret",
	}
	for path, data := range files {
		if _, err := k.FS.WriteFile(path, []byte(data), 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.FS.MkdirAll("/out", 0o777, 0, 0); err != nil {
		t.Fatal(err)
	}
	return k, k.NewProc(0, 0)
}

func exeCap(k *kernel.Kernel, p *kernel.Proc, path string) *cap.Capability {
	return cap.NewFile(p, k.FS.MustResolve(path), stdlib.ExecGrant)
}

func TestExecConfinesToArguments(t *testing.T) {
	k, p := world(t)
	reader := exeCap(k, p, "/bin/reader")
	in := cap.NewFile(p, k.FS.MustResolve("/data/in.txt"), stdlib.ReadOnlyFileGrant)
	pf := cap.NewPipeFactory(p)
	r, w, _ := pf.CreatePipe()

	res, err := Exec(p, reader, []Arg{CapArg(in)}, Options{Stdout: w})
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("reader exit = %d", res.ExitCode)
	}
	data, _ := r.Read()
	if string(data) != "payload" {
		t.Fatalf("output = %q", data)
	}

	// The same binary cannot read a file it was not granted.
	r2, w2, _ := pf.CreatePipe()
	res, err = Exec(p, reader, []Arg{StrArg("/data/priv.txt")}, Options{Stdout: w2, Stderr: w2})
	w2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode == 0 {
		t.Fatal("reader read an ungranted file")
	}
	if out, _ := r2.Read(); strings.Contains(string(out), "secret") {
		t.Fatal("secret leaked")
	}
}

func TestExecRequiresExecPrivilege(t *testing.T) {
	k, p := world(t)
	noExec := cap.NewFile(p, k.FS.MustResolve("/bin/reader"), stdlib.ReadOnlyFileGrant)
	_, err := Exec(p, noExec, nil, Options{})
	var np *cap.NoPrivilegeError
	if !errors.As(err, &np) {
		t.Fatalf("exec without +exec = %v", err)
	}
}

func TestWriterHonoursCreateModifier(t *testing.T) {
	k, p := world(t)
	writer := exeCap(k, p, "/bin/writer")
	outDir := cap.NewDir(p, k.FS.MustResolve("/out"),
		priv.NewGrant(priv.RLookup, priv.RCreateFile).
			WithDerived(priv.RCreateFile, priv.NewGrant(priv.RWrite, priv.RAppend, priv.RStat, priv.RPath)))
	res, err := Exec(p, writer, []Arg{StrArg("/out/new.txt")}, Options{Extras: []*cap.Capability{outDir}})
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("writer = %d, %v", res.ExitCode, err)
	}
	if got := string(k.FS.MustResolve("/out/new.txt").Bytes()); got != "written" {
		t.Fatalf("file contents = %q", got)
	}
	// Overwriting an existing, ungranted file fails even under the same
	// directory capability once created by another session.
	res, _ = Exec(p, writer, []Arg{StrArg("/data/in.txt")}, Options{Extras: []*cap.Capability{outDir}})
	if res.ExitCode == 0 {
		t.Fatal("writer overwrote an ungranted file")
	}
}

func TestSocketFactoryGate(t *testing.T) {
	k, p := world(t)
	// A listener for the dialer to reach.
	l := k.Net.NewSocket(netstack.DomainIP)
	if err := k.Net.Bind(l, "99"); err != nil {
		t.Fatal(err)
	}
	if err := k.Net.Listen(l); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := k.Net.Accept(l); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { k.Net.Close(l) })

	dialer := exeCap(k, p, "/bin/dialer")
	// Without a socket factory, socket creation is denied.
	res, err := Exec(p, dialer, nil, Options{})
	if err != nil || res.ExitCode != 1 {
		t.Fatalf("dialer without factory = %d, %v", res.ExitCode, err)
	}
	// With one, the connection succeeds.
	sf := cap.NewSocketFactory(p, netstack.DomainIP, priv.GrantOf(priv.AllSock))
	res, err = Exec(p, dialer, nil, Options{SocketFactories: []*cap.Capability{sf}})
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("dialer with factory = %d, %v", res.ExitCode, err)
	}
	// A factory without connect privilege allows creation but not dialing.
	sf2 := cap.NewSocketFactory(p, netstack.DomainIP, priv.NewGrant(priv.RSockCreate))
	res, err = Exec(p, dialer, nil, Options{SocketFactories: []*cap.Capability{sf2}})
	if err != nil || res.ExitCode != 2 {
		t.Fatalf("dialer with create-only factory = %d, %v", res.ExitCode, err)
	}
}

func TestWorkDirAndUlimits(t *testing.T) {
	k, p := world(t)
	k.RegisterBinary("pwd-writer", func(p *kernel.Proc, argv []string) int {
		fd, err := p.OpenAt(kernel.AtCWD, "here.txt", kernel.OCreate|kernel.OWrite, 0o644)
		if err != nil {
			return 1
		}
		p.Write(fd, []byte("x"))
		return 0
	})
	vn, _ := k.FS.WriteFile("/bin/pwd-writer", []byte("#!bin:pwd-writer\n"), 0o755, 0, 0)
	_ = vn
	exe := exeCap(k, p, "/bin/pwd-writer")
	outDir := cap.NewDir(p, k.FS.MustResolve("/out"), priv.FullGrant())
	res, err := Exec(p, exe, nil, Options{WorkDir: outDir})
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("pwd-writer = %d, %v", res.ExitCode, err)
	}
	if _, err := k.FS.Resolve("/out/here.txt"); err != nil {
		t.Fatal("file not created in the working directory")
	}

	// Ulimit: with MaxOpenFiles 3 the writer cannot even wire stdio + file.
	lim := kernel.DefaultUlimits()
	lim.MaxOpenFiles = 0
	res, err = Exec(p, exe, nil, Options{WorkDir: outDir, Limits: &lim})
	if err != nil || res.ExitCode == 0 {
		t.Fatalf("ulimit not enforced: %d, %v", res.ExitCode, err)
	}
}

func TestProfRecordsSetupAndExec(t *testing.T) {
	k, p := world(t)
	collector := k.Prof
	reader := exeCap(k, p, "/bin/reader")
	in := cap.NewFile(p, k.FS.MustResolve("/data/in.txt"), stdlib.ReadOnlyFileGrant)
	if _, err := Exec(p, reader, []Arg{CapArg(in)}, Options{}); err != nil {
		t.Fatal(err)
	}
	if collector.Count(prof.SandboxSetup) != 1 || collector.Count(prof.SandboxExec) != 1 {
		t.Fatalf("prof counts = %d, %d", collector.Count(prof.SandboxSetup), collector.Count(prof.SandboxExec))
	}
	if collector.Total(prof.SandboxSetup) <= 0 {
		t.Fatal("no setup time recorded")
	}
}

func TestDebugSandboxRunsAndLogs(t *testing.T) {
	k, p := world(t)
	reader := exeCap(k, p, "/bin/reader")
	// No grant for the file at all — debug mode auto-grants.
	res, err := Exec(p, reader, []Arg{StrArg("/data/priv.txt")}, Options{Debug: true})
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("debug run = %d, %v", res.ExitCode, err)
	}
	if len(res.Session.Log().AutoGrants()) == 0 {
		t.Fatal("debug session recorded no auto-grants")
	}
}

func TestAncestorLookupGrantsAreBare(t *testing.T) {
	k, p := world(t)
	reader := exeCap(k, p, "/bin/reader")
	in := cap.NewFile(p, k.FS.MustResolve("/data/in.txt"), stdlib.ReadOnlyFileGrant)
	// The session's privilege maps are scrubbed asynchronously after
	// exit, so inspect the grants through the session log instead.
	res, err := Exec(p, reader, []Arg{CapArg(in)}, Options{Logging: true})
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("reader = %d, %v", res.ExitCode, err)
	}
	var dataGrant *kernel.LogEntry
	for _, e := range res.Session.Log().Entries() {
		if e.Kind == kernel.LogGrant && e.Object == "/data" {
			e := e
			dataGrant = &e
		}
	}
	if dataGrant == nil {
		t.Fatal("no ancestor grant recorded for /data")
	}
	// The ancestor grant carries lookup/stat/path and nothing else.
	if dataGrant.Rights.Has(priv.RContents) || dataGrant.Rights.Has(priv.RRead) {
		t.Fatalf("ancestor grant too broad: %v", dataGrant.Rights)
	}
	if !dataGrant.Rights.Has(priv.RLookup) {
		t.Fatalf("ancestor grant missing +lookup: %v", dataGrant.Rights)
	}
}
