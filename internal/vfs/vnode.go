// Package vfs is the in-memory filesystem substrate standing in for the
// FreeBSD VFS layer the paper's kernel module hooks into. It supplies
// vnodes (regular files, directories, symlinks, character devices),
// classic UNIX discretionary access control, hard links, a lookup cache
// supporting the SHILL module's path(2) reverse lookup, and anonymous
// pipes. No mandatory access control happens here: the simulated kernel
// (internal/kernel) invokes the MAC framework around these primitives,
// exactly as FreeBSD's syscall layer wraps its VFS.
package vfs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/errno"
	"repro/internal/mac"
	"repro/internal/prof"
)

// VnodeType distinguishes the kinds of filesystem objects.
type VnodeType int

// Vnode types.
const (
	TypeFile VnodeType = iota
	TypeDir
	TypeSymlink
	TypeCharDev
)

func (t VnodeType) String() string {
	switch t {
	case TypeFile:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	case TypeCharDev:
		return "chardev"
	}
	return "unknown"
}

// DeviceOps is implemented by character-device backends (e.g. /dev/null,
// a pseudo-terminal). The MAC framework does not interpose on these reads
// and writes — the paper's §3.2.3 limitation — so the kernel calls them
// without consulting the framework.
type DeviceOps interface {
	DevRead(p []byte) (int, error)
	DevWrite(p []byte) (int, error)
}

// Mode bits follow the UNIX convention (owner/group/other rwx).
const (
	ModeRead  = 4
	ModeWrite = 2
	ModeExec  = 1
)

// Stat is the metadata snapshot returned by stat-family syscalls.
type Stat struct {
	Ino   uint64
	Type  VnodeType
	Mode  uint16
	UID   int
	GID   int
	Nlink int
	Size  int64
	Atime time.Time
	Mtime time.Time
	Ctime time.Time
}

// Vnode is an in-memory filesystem object. Namespace fields (children,
// parent, name, nlink) are guarded by the owning FS's namespace lock;
// data is guarded by the vnode's own lock so concurrent I/O on distinct
// files does not contend.
type Vnode struct {
	ino uint64
	typ VnodeType
	fs  *FS

	// Namespace state, guarded by fs.mu.
	children map[string]*Vnode // directories only
	parent   *Vnode            // last-known parent (lookup cache)
	name     string            // last-known name within parent
	nlink    int

	// Layering state (see cow.go). basePath is the path this vnode's
	// content lives at inside fs.base ("" when not base-backed); wh
	// records whited-out base child names of a directory; opaque marks
	// a vnode that replaced a base path entirely. All guarded by fs.mu.
	basePath string
	wh       map[string]struct{}
	opaque   bool
	relist   bool // dir gained a hard link; capture re-emits its children

	// cowData, guarded by dmu, marks file/symlink data that still
	// aliases an immutable base layer; mutators copy before writing.
	cowData bool

	// noted flags membership in fs.modified (the dirty set).
	noted atomic.Bool

	// Journal dedup state, guarded by fs.jmu.
	jpath string
	jpos  uint64

	// Metadata, guarded by dmu.
	dmu   sync.RWMutex
	mode  uint16
	uid   int
	gid   int
	atime time.Time
	mtime time.Time
	ctime time.Time
	data  []byte // files: contents; symlinks: target path

	dev DeviceOps // character devices only

	label mac.Label
}

// MACLabel returns the vnode's MAC label.
func (v *Vnode) MACLabel() *mac.Label { return &v.label }

// Ino returns the vnode's inode number.
func (v *Vnode) Ino() uint64 { return v.ino }

// Type returns the vnode's type.
func (v *Vnode) Type() VnodeType { return v.typ }

// IsDir reports whether the vnode is a directory.
func (v *Vnode) IsDir() bool { return v.typ == TypeDir }

// IsFile reports whether the vnode is a regular file.
func (v *Vnode) IsFile() bool { return v.typ == TypeFile }

// Device returns the device backend for character devices, or nil.
func (v *Vnode) Device() DeviceOps { return v.dev }

// Stat returns a metadata snapshot.
func (v *Vnode) Stat() Stat {
	v.fs.mu.RLock()
	nlink := v.nlink
	v.fs.mu.RUnlock()
	v.dmu.RLock()
	defer v.dmu.RUnlock()
	return Stat{
		Ino:   v.ino,
		Type:  v.typ,
		Mode:  v.mode,
		UID:   v.uid,
		GID:   v.gid,
		Nlink: nlink,
		Size:  int64(len(v.data)),
		Atime: v.atime,
		Mtime: v.mtime,
		Ctime: v.ctime,
	}
}

// Size returns the current data length.
func (v *Vnode) Size() int64 {
	v.dmu.RLock()
	defer v.dmu.RUnlock()
	return int64(len(v.data))
}

// Accessible implements discretionary access control: it reports whether
// the identity (uid, gid) may access the vnode with the requested
// permission bits (a combination of ModeRead/ModeWrite/ModeExec).
// UID 0 bypasses DAC for everything except execute, which requires at
// least one execute bit, matching UNIX semantics.
func (v *Vnode) Accessible(uid, gid int, want uint16) bool {
	v.dmu.RLock()
	mode, vuid, vgid := v.mode, v.uid, v.gid
	v.dmu.RUnlock()
	if uid == 0 {
		if want&ModeExec != 0 && mode&0o111 == 0 {
			return false
		}
		return true
	}
	var granted uint16
	switch {
	case uid == vuid:
		granted = (mode >> 6) & 7
	case gid == vgid:
		granted = (mode >> 3) & 7
	default:
		granted = mode & 7
	}
	return granted&want == want
}

// ensureOwnedLocked breaks the copy-on-write alias to a base layer's
// bytes before any in-place mutation. Caller holds dmu for writing.
func (v *Vnode) ensureOwnedLocked() {
	if v.cowData {
		v.data = append([]byte(nil), v.data...)
		v.cowData = false
	}
}

// ReadAt reads into p starting at offset off, returning the byte count.
// Reading at or past EOF returns 0 bytes and no error (the kernel layer
// translates that to EOF as read(2) does).
func (v *Vnode) ReadAt(p []byte, off int64) (int, error) {
	defer v.fs.prof.End(prof.VFS, v.fs.prof.Begin(prof.VFS))
	if v.typ == TypeDir {
		return 0, errno.EISDIR
	}
	if v.typ == TypeCharDev {
		return v.dev.DevRead(p)
	}
	v.dmu.Lock()
	defer v.dmu.Unlock()
	v.atime = v.fs.now()
	if off >= int64(len(v.data)) {
		return 0, nil
	}
	n := copy(p, v.data[off:])
	return n, nil
}

// WriteAt writes p at offset off, growing the file as needed.
func (v *Vnode) WriteAt(p []byte, off int64) (int, error) {
	defer v.fs.prof.End(prof.VFS, v.fs.prof.Begin(prof.VFS))
	if v.typ == TypeDir {
		return 0, errno.EISDIR
	}
	if v.typ == TypeCharDev {
		return v.dev.DevWrite(p)
	}
	v.fs.noteMutate(v)
	v.dmu.Lock()
	defer v.dmu.Unlock()
	if need := off + int64(len(p)); need > int64(len(v.data)) {
		grown := make([]byte, need)
		copy(grown, v.data)
		v.data = grown
		v.cowData = false
	} else {
		v.ensureOwnedLocked()
	}
	copy(v.data[off:], p)
	v.mtime = v.fs.now()
	return len(p), nil
}

// Append writes p at end-of-file and returns the offset it was written
// at, providing the atomic O_APPEND behaviour SHILL's append builtin and
// grade-log isolation rely on.
func (v *Vnode) Append(p []byte) (int64, error) {
	defer v.fs.prof.End(prof.VFS, v.fs.prof.Begin(prof.VFS))
	if v.typ == TypeDir {
		return 0, errno.EISDIR
	}
	if v.typ == TypeCharDev {
		_, err := v.dev.DevWrite(p)
		return 0, err
	}
	v.fs.noteMutate(v)
	v.dmu.Lock()
	defer v.dmu.Unlock()
	v.ensureOwnedLocked()
	off := int64(len(v.data))
	v.data = append(v.data, p...)
	v.mtime = v.fs.now()
	return off, nil
}

// Truncate sets the file length.
func (v *Vnode) Truncate(size int64) error {
	if v.typ != TypeFile {
		return errno.EINVAL
	}
	v.fs.noteMutate(v)
	v.dmu.Lock()
	defer v.dmu.Unlock()
	v.ensureOwnedLocked()
	switch {
	case size < 0:
		return errno.EINVAL
	case size <= int64(len(v.data)):
		v.data = v.data[:size]
	default:
		grown := make([]byte, size)
		copy(grown, v.data)
		v.data = grown
	}
	v.mtime = v.fs.now()
	return nil
}

// Bytes returns a copy of the file contents.
func (v *Vnode) Bytes() []byte {
	v.dmu.RLock()
	defer v.dmu.RUnlock()
	out := make([]byte, len(v.data))
	copy(out, v.data)
	return out
}

// SetBytes replaces the file contents (used when building filesystem
// images; goes through no access checks).
func (v *Vnode) SetBytes(p []byte) {
	v.fs.noteMutate(v)
	v.dmu.Lock()
	defer v.dmu.Unlock()
	v.data = make([]byte, len(p))
	copy(v.data, p)
	v.cowData = false
	v.mtime = v.fs.now()
}

// Readlink returns a symlink's target.
func (v *Vnode) Readlink() (string, error) {
	if v.typ != TypeSymlink {
		return "", errno.EINVAL
	}
	v.dmu.RLock()
	defer v.dmu.RUnlock()
	return string(v.data), nil
}

// Mode returns the permission bits.
func (v *Vnode) Mode() uint16 {
	v.dmu.RLock()
	defer v.dmu.RUnlock()
	return v.mode
}

// Chmod sets the permission bits.
func (v *Vnode) Chmod(mode uint16) {
	v.fs.noteMutate(v)
	v.dmu.Lock()
	defer v.dmu.Unlock()
	v.mode = mode & 0o7777
	v.ctime = v.fs.now()
}

// Chown sets the owner and group.
func (v *Vnode) Chown(uid, gid int) {
	v.fs.noteMutate(v)
	v.dmu.Lock()
	defer v.dmu.Unlock()
	v.uid, v.gid = uid, gid
	v.ctime = v.fs.now()
}

// Owner returns the owning uid and gid.
func (v *Vnode) Owner() (uid, gid int) {
	v.dmu.RLock()
	defer v.dmu.RUnlock()
	return v.uid, v.gid
}
