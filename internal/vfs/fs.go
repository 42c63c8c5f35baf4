package vfs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errno"
	"repro/internal/prof"
)

// FS is an in-memory filesystem: a tree of vnodes under a single root.
// Namespace mutations (link, unlink, rename, create) take the FS-wide
// namespace lock; file data I/O uses per-vnode locks.
type FS struct {
	mu      sync.RWMutex
	root    *Vnode
	nextIno uint64

	// prof, when set, counts every operation and times a sample of them
	// under prof.VFS. Nil (the default) costs one nil check per
	// operation.
	prof *prof.Collector

	// clock lets deterministic tests pin timestamps; defaults to
	// time.Now.
	clock atomic.Value // func() time.Time

	// base is the immutable flattened layer this filesystem was booted
	// from (nil for a cold filesystem); see cow.go.
	base *Layer

	// modified is the dirty set: vnodes diverged from base. Guarded by
	// modMu, which nests inside every other lock.
	modMu    sync.Mutex
	modified map[*Vnode]struct{}

	// Change-window journal (see cow.go). jwin mirrors len(jopen) so
	// the no-window fast path is one atomic load. jbase is the absolute
	// index of journal[0]; jnewest the largest open-window start.
	jwin    atomic.Int32
	jmu     sync.Mutex
	jopen   []*ChangeWindow
	journal []string
	jbase   uint64
	jnewest uint64
}

// New returns a filesystem containing only a root directory owned by
// root with mode 0755.
func New() *FS {
	fs := &FS{}
	fs.clock.Store(time.Now)
	fs.modified = make(map[*Vnode]struct{})
	fs.root = fs.newVnode(TypeDir, 0o755, 0, 0)
	fs.root.children = make(map[string]*Vnode)
	fs.root.parent = fs.root
	fs.root.name = "/"
	fs.root.nlink = 2
	return fs
}

// SetClock replaces the timestamp source (tests only).
func (fs *FS) SetClock(fn func() time.Time) { fs.clock.Store(fn) }

// SetProf attaches the machine's profile collector (prof.VFS). Set it
// before the filesystem is shared across goroutines; the kernel wires
// it at construction.
func (fs *FS) SetProf(c *prof.Collector) { fs.prof = c }

func (fs *FS) now() time.Time { return fs.clock.Load().(func() time.Time)() }

// Root returns the root directory vnode.
func (fs *FS) Root() *Vnode { return fs.root }

func (fs *FS) newVnode(typ VnodeType, mode uint16, uid, gid int) *Vnode {
	now := fs.now()
	v := &Vnode{
		ino:   atomic.AddUint64(&fs.nextIno, 1),
		typ:   typ,
		fs:    fs,
		mode:  mode & 0o7777,
		uid:   uid,
		gid:   gid,
		atime: now,
		mtime: now,
		ctime: now,
		nlink: 1,
	}
	if typ == TypeDir {
		v.children = make(map[string]*Vnode)
		v.nlink = 2
	}
	return v
}

// ValidName reports whether name is a legal single directory-entry name:
// non-empty, no '/', no NUL, and within NAME_MAX. "." and ".." are legal
// names for lookup but never for creation.
func ValidName(name string) bool {
	if name == "" || len(name) > 255 {
		return false
	}
	return !strings.ContainsAny(name, "/\x00")
}

func validCreateName(name string) error {
	if !ValidName(name) {
		return errno.EINVAL
	}
	if name == "." || name == ".." {
		return errno.EEXIST
	}
	return nil
}

// Lookup resolves a single component name within dir. "." returns dir
// itself; ".." returns the parent (the root's parent is the root). The
// caller is responsible for MAC checks and symlink policy.
func (fs *FS) Lookup(dir *Vnode, name string) (*Vnode, error) {
	defer fs.prof.End(prof.VFS, fs.prof.Begin(prof.VFS))
	if !dir.IsDir() {
		return nil, errno.ENOTDIR
	}
	if !ValidName(name) {
		return nil, errno.EINVAL
	}
	fs.mu.RLock()
	switch name {
	case ".":
		fs.mu.RUnlock()
		return dir, nil
	case "..":
		parent := dir.parent
		fs.mu.RUnlock()
		return parent, nil
	}
	if child, ok := dir.children[name]; ok {
		fs.mu.RUnlock()
		return child, nil
	}
	e, _ := fs.baseEntryLocked(dir, name)
	fs.mu.RUnlock()
	if e == nil {
		return nil, errno.ENOENT
	}
	// The name resolves into the base image: upgrade to the write lock
	// and materialize (re-checking, since the namespace may have moved
	// between the two lock acquisitions).
	fs.mu.Lock()
	defer fs.mu.Unlock()
	child, ok := fs.childLocked(dir, name)
	if !ok {
		return nil, errno.ENOENT
	}
	return child, nil
}

// Exists reports whether dir has an entry called name.
func (fs *FS) Exists(dir *Vnode, name string) bool {
	_, err := fs.Lookup(dir, name)
	return err == nil
}

// Create makes a new regular file in dir.
func (fs *FS) Create(dir *Vnode, name string, mode uint16, uid, gid int) (*Vnode, error) {
	return fs.createNode(dir, name, TypeFile, mode, uid, gid, "")
}

// Mkdir makes a new directory in dir.
func (fs *FS) Mkdir(dir *Vnode, name string, mode uint16, uid, gid int) (*Vnode, error) {
	return fs.createNode(dir, name, TypeDir, mode, uid, gid, "")
}

// Symlink makes a new symbolic link in dir pointing at target.
func (fs *FS) Symlink(dir *Vnode, name, target string, uid, gid int) (*Vnode, error) {
	return fs.createNode(dir, name, TypeSymlink, 0o777, uid, gid, target)
}

// Mkdev makes a character device in dir backed by ops.
func (fs *FS) Mkdev(dir *Vnode, name string, mode uint16, uid, gid int, ops DeviceOps) (*Vnode, error) {
	v, err := fs.createNode(dir, name, TypeCharDev, mode, uid, gid, "")
	if err != nil {
		return nil, err
	}
	v.dev = ops
	return v, nil
}

func (fs *FS) createNode(dir *Vnode, name string, typ VnodeType, mode uint16, uid, gid int, target string) (*Vnode, error) {
	defer fs.prof.End(prof.VFS, fs.prof.Begin(prof.VFS))
	if !dir.IsDir() {
		return nil, errno.ENOTDIR
	}
	if err := validCreateName(name); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, exists := dir.children[name]; exists {
		return nil, errno.EEXIST
	}
	if e, _ := fs.baseEntryLocked(dir, name); e != nil {
		return nil, errno.EEXIST
	}
	v := fs.newVnode(typ, mode, uid, gid)
	if typ == TypeSymlink {
		v.data = []byte(target)
	}
	fs.installLocked(dir, name, v)
	v.parent = dir
	v.name = name
	if typ == TypeDir {
		dir.nlink++
	}
	dir.dmu.Lock()
	dir.mtime = fs.now()
	dir.dmu.Unlock()
	fs.noteVnode(v)
	if fs.jwin.Load() > 0 {
		if dpath, ok := fs.pathOfLocked(dir); ok {
			fs.journalTouch(v, joinPath(dpath, name))
		}
	}
	return v, nil
}

// Link installs a new hard link to file under dir/name. Directories
// cannot be hard-linked.
func (fs *FS) Link(dir *Vnode, name string, file *Vnode) error {
	defer fs.prof.End(prof.VFS, fs.prof.Begin(prof.VFS))
	if !dir.IsDir() {
		return errno.ENOTDIR
	}
	if file.IsDir() {
		return errno.EPERM
	}
	if err := validCreateName(name); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, exists := dir.children[name]; exists {
		return errno.EEXIST
	}
	if e, _ := fs.baseEntryLocked(dir, name); e != nil {
		return errno.EEXIST
	}
	fs.installLocked(dir, name, file)
	file.nlink++
	// The lookup cache records the most recent place the file was
	// reachable; keep the original parent if still linked there.
	if file.parent == nil || file.parent.children[file.name] != file {
		file.parent = dir
		file.name = name
	}
	fs.noteVnode(file)
	if fs.base != nil {
		// Capture emits each modified vnode at one cached path; a dir
		// that gained a hard link re-emits its direct children so the
		// alias is not lost in a snapshot.
		dir.relist = true
		fs.noteVnode(dir)
	}
	if fs.jwin.Load() > 0 {
		if dpath, ok := fs.pathOfLocked(dir); ok {
			fs.journalTouch(nil, joinPath(dpath, name))
		}
	}
	return nil
}

// Unlink removes the entry dir/name. Removing a directory requires it to
// be empty; rmdir must be true for directories and false for files,
// matching unlinkat(2)'s AT_REMOVEDIR flag split.
func (fs *FS) Unlink(dir *Vnode, name string, rmdir bool) error {
	defer fs.prof.End(prof.VFS, fs.prof.Begin(prof.VFS))
	if !dir.IsDir() {
		return errno.ENOTDIR
	}
	if name == "." || name == ".." {
		return errno.EINVAL
	}
	if !ValidName(name) {
		return errno.EINVAL
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	child, ok := fs.childLocked(dir, name)
	if !ok {
		return errno.ENOENT
	}
	if child.IsDir() {
		if !rmdir {
			return errno.EISDIR
		}
		if !fs.dirEmptyLocked(child) {
			return errno.ENOTEMPTY
		}
		dir.nlink--
	} else if rmdir {
		return errno.ENOTDIR
	}
	fs.removeNameLocked(dir, name)
	child.nlink--
	if child.parent == dir && child.name == name {
		child.parent = nil // no longer reachable here; path cache misses
	}
	if fs.jwin.Load() > 0 {
		if dpath, ok := fs.pathOfLocked(dir); ok {
			fs.journalTouch(nil, joinPath(dpath, name))
		}
	}
	return nil
}

// UnlinkIfSame removes dir/name only if it still refers to file,
// implementing the TOCTOU-free funlinkat(2) the SHILL kernel module adds
// (§3.1.3).
func (fs *FS) UnlinkIfSame(dir *Vnode, name string, file *Vnode) error {
	defer fs.prof.End(prof.VFS, fs.prof.Begin(prof.VFS))
	if !dir.IsDir() {
		return errno.ENOTDIR
	}
	if !ValidName(name) || name == "." || name == ".." {
		return errno.EINVAL
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	child, ok := fs.childLocked(dir, name)
	if !ok {
		return errno.ENOENT
	}
	if child != file {
		return errno.EINVAL
	}
	if child.IsDir() {
		return errno.EISDIR
	}
	fs.removeNameLocked(dir, name)
	child.nlink--
	if child.parent == dir && child.name == name {
		child.parent = nil
	}
	if fs.jwin.Load() > 0 {
		if dpath, ok := fs.pathOfLocked(dir); ok {
			fs.journalTouch(nil, joinPath(dpath, name))
		}
	}
	return nil
}

// Rename moves srcDir/srcName to dstDir/dstName, replacing a compatible
// existing target as rename(2) does.
func (fs *FS) Rename(srcDir *Vnode, srcName string, dstDir *Vnode, dstName string) error {
	defer fs.prof.End(prof.VFS, fs.prof.Begin(prof.VFS))
	if !srcDir.IsDir() || !dstDir.IsDir() {
		return errno.ENOTDIR
	}
	if !ValidName(srcName) || srcName == "." || srcName == ".." {
		return errno.EINVAL
	}
	if err := validCreateName(dstName); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	src, ok := fs.childLocked(srcDir, srcName)
	if !ok {
		return errno.ENOENT
	}
	// A directory may not be moved into its own subtree.
	if src.IsDir() {
		for d := dstDir; ; d = d.parent {
			if d == src {
				return errno.EINVAL
			}
			if d == fs.root {
				break
			}
		}
	}
	if dst, exists := fs.childLocked(dstDir, dstName); exists {
		if dst == src {
			return nil
		}
		if dst.IsDir() {
			if !src.IsDir() {
				return errno.EISDIR
			}
			if !fs.dirEmptyLocked(dst) {
				return errno.ENOTEMPTY
			}
			dstDir.nlink--
		} else if src.IsDir() {
			return errno.ENOTDIR
		}
		dst.nlink--
		if dst.parent == dstDir && dst.name == dstName {
			dst.parent = nil
		}
		fs.removeNameLocked(dstDir, dstName)
	}
	fs.removeNameLocked(srcDir, srcName)
	fs.installLocked(dstDir, dstName, src)
	if src.IsDir() {
		srcDir.nlink--
		dstDir.nlink++
	}
	src.parent = dstDir
	src.name = dstName
	fs.noteVnode(src)
	if fs.jwin.Load() > 0 {
		// journalSubtreeLocked builds paths from the given prefix and
		// the subtree's structure, so it can record both the vacated
		// and the new locations after the move.
		if spath, ok := fs.pathOfLocked(srcDir); ok {
			fs.journalSubtreeLocked(src, joinPath(spath, srcName))
		}
		if dpath, ok := fs.pathOfLocked(dstDir); ok {
			fs.journalSubtreeLocked(src, joinPath(dpath, dstName))
		}
	}
	return nil
}

// ReadDir returns the sorted entry names of dir (excluding "." and "..").
func (fs *FS) ReadDir(dir *Vnode) ([]string, error) {
	defer fs.prof.End(prof.VFS, fs.prof.Begin(prof.VFS))
	if !dir.IsDir() {
		return nil, errno.ENOTDIR
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	names := make([]string, 0, len(dir.children))
	for name := range dir.children {
		names = append(names, name)
	}
	names = append(names, fs.visibleBaseNamesLocked(dir)...)
	sort.Strings(names)
	return names, nil
}

// PathOf returns an accessible absolute path for v from the lookup
// cache, or "" and false if v is no longer reachable. It backs the
// path(2) syscall the SHILL module adds (§3.1.3).
func (fs *FS) PathOf(v *Vnode) (string, bool) {
	defer fs.prof.End(prof.VFS, fs.prof.Begin(prof.VFS))
	return fs.pathOf(v)
}

// pathOf is PathOf without op accounting, for internal hooks.
func (fs *FS) pathOf(v *Vnode) (string, bool) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.pathOfLocked(v)
}

// pathOfLocked resolves v's cached path. Caller holds fs.mu.
func (fs *FS) pathOfLocked(v *Vnode) (string, bool) {
	if v == fs.root {
		return "/", true
	}
	var parts []string
	for cur := v; cur != fs.root; {
		p := cur.parent
		if p == nil || p.children[cur.name] != cur {
			return "", false
		}
		parts = append(parts, cur.name)
		cur = p
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return "/" + strings.Join(parts, "/"), true
}

// Parent returns v's last-known parent directory (root for the root).
func (fs *FS) Parent(v *Vnode) *Vnode {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if v.parent == nil {
		return nil
	}
	return v.parent
}

// --- image-building helpers (host-side, no access control) ---

// MustResolve walks an absolute slash-separated path from the root,
// following no symlinks, and panics if any component is missing. It is a
// test/image-building convenience only.
func (fs *FS) MustResolve(path string) *Vnode {
	v, err := fs.Resolve(path)
	if err != nil {
		panic("vfs.MustResolve " + path + ": " + err.Error())
	}
	return v
}

// Resolve walks an absolute path from the root without following
// symlinks and without access checks (image building and tests only).
func (fs *FS) Resolve(path string) (*Vnode, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, errno.EINVAL
	}
	cur := fs.root
	for _, comp := range strings.Split(path, "/") {
		if comp == "" {
			continue
		}
		next, err := fs.Lookup(cur, comp)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// MkdirAll creates every missing directory along an absolute path and
// returns the final directory (image building only).
func (fs *FS) MkdirAll(path string, mode uint16, uid, gid int) (*Vnode, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, errno.EINVAL
	}
	cur := fs.root
	for _, comp := range strings.Split(path, "/") {
		if comp == "" {
			continue
		}
		next, err := fs.Lookup(cur, comp)
		if err == nil {
			if !next.IsDir() {
				return nil, errno.ENOTDIR
			}
			cur = next
			continue
		}
		next, err = fs.Mkdir(cur, comp, mode, uid, gid)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// WriteFile creates (or replaces the contents of) the file at an
// absolute path, creating parent directories as needed (image building
// only).
func (fs *FS) WriteFile(path string, data []byte, mode uint16, uid, gid int) (*Vnode, error) {
	dirPath, name := splitPath(path)
	dir, err := fs.MkdirAll(dirPath, 0o755, uid, gid)
	if err != nil {
		return nil, err
	}
	v, err := fs.Lookup(dir, name)
	if err != nil {
		v, err = fs.Create(dir, name, mode, uid, gid)
		if err != nil {
			return nil, err
		}
	}
	v.SetBytes(data)
	return v, nil
}

func splitPath(path string) (dir, name string) {
	path = strings.TrimRight(path, "/")
	idx := strings.LastIndex(path, "/")
	if idx <= 0 {
		return "/", strings.TrimPrefix(path, "/")
	}
	return path[:idx], path[idx+1:]
}

// Walk visits every vnode under dir in depth-first order, invoking fn
// with the vnode's absolute path. Used by image verification and tests.
func (fs *FS) Walk(dir *Vnode, fn func(path string, v *Vnode)) {
	path, ok := fs.PathOf(dir)
	if !ok {
		return
	}
	fs.walk(path, dir, fn)
}

// WalkPrune visits vnodes under dir in depth-first order. fn returns
// whether to descend into the vnode's children, letting callers skip
// whole subtrees instead of filtering a full walk's results.
func (fs *FS) WalkPrune(dir *Vnode, fn func(path string, v *Vnode) bool) {
	path, ok := fs.PathOf(dir)
	if !ok {
		return
	}
	fs.walkPrune(path, dir, fn)
}

func (fs *FS) walkPrune(path string, v *Vnode, fn func(string, *Vnode) bool) {
	if !fn(path, v) || !v.IsDir() {
		return
	}
	names, _ := fs.ReadDir(v)
	prefix := path
	if prefix != "/" {
		prefix += "/"
	}
	for _, name := range names {
		child, err := fs.Lookup(v, name)
		if err == nil {
			fs.walkPrune(prefix+name, child, fn)
		}
	}
}

func (fs *FS) walk(path string, v *Vnode, fn func(string, *Vnode)) {
	fn(path, v)
	if !v.IsDir() {
		return
	}
	names, _ := fs.ReadDir(v)
	prefix := path
	if prefix != "/" {
		prefix += "/"
	}
	for _, name := range names {
		child, err := fs.Lookup(v, name)
		if err == nil {
			fs.walk(prefix+name, child, fn)
		}
	}
}
