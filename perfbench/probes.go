package main

import (
	"net"
	"sync"
	"sync/atomic"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/fsys"
	"s4/internal/s4rpc"
	"s4/internal/types"
	"s4/internal/vclock"
)

// Probes: bench-owned wrappers around the public interfaces of each
// layer. They count work, time it as spans when tracing is on, and (for
// the client-facing ones) check every reply against the bench's record.
// No program file is changed; every probe sits at an interface the
// program already exposes.

// ---- s4rpc client side: the s4fs.Backend a session offers ----

// rpcProbe is one client's s4rpc session. It advances the bench clock
// by a fixed step before every mutation, so the versions a run makes
// are spaced by op count and not by how fast the build runs.
type rpcProbe struct {
	c      *s4rpc.Client
	id     uint32
	m      *meter
	clk    *vclock.Virtual
	parent *active // s4fs span in progress, if any (single goroutine)
}

func (p *rpcProbe) begin(name string) *active {
	p.m.calls.Add(1)
	a := p.m.tr.begin(name, p.parent)
	p.m.tr.setCall(p.id, a)
	return a
}

func (p *rpcProbe) end(a *active) {
	if a != nil {
		p.m.tr.setCall(p.id, nil)
		p.m.tr.end(a, p.parent)
	}
}

func (p *rpcProbe) tick() { p.clk.Advance(step) }

func (p *rpcProbe) Create(acl []types.ACLEntry, attr []byte) (types.ObjectID, error) {
	p.tick()
	a := p.begin("s4rpc.Create")
	defer p.end(a)
	return p.c.Create(acl, attr)
}

func (p *rpcProbe) Delete(obj types.ObjectID) error {
	p.tick()
	a := p.begin("s4rpc.Delete")
	defer p.end(a)
	return p.c.Delete(obj)
}

func (p *rpcProbe) Read(obj types.ObjectID, off, n uint64, at types.Timestamp) ([]byte, error) {
	a := p.begin("s4rpc.Read")
	defer p.end(a)
	return p.c.Read(obj, off, n, at)
}

func (p *rpcProbe) Write(obj types.ObjectID, off uint64, data []byte) error {
	p.tick()
	a := p.begin("s4rpc.Write")
	defer p.end(a)
	return p.c.Write(obj, off, data)
}

func (p *rpcProbe) Truncate(obj types.ObjectID, size uint64) error {
	p.tick()
	a := p.begin("s4rpc.Truncate")
	defer p.end(a)
	return p.c.Truncate(obj, size)
}

func (p *rpcProbe) GetAttr(obj types.ObjectID, at types.Timestamp) (core.AttrInfo, error) {
	a := p.begin("s4rpc.GetAttr")
	defer p.end(a)
	return p.c.GetAttr(obj, at)
}

func (p *rpcProbe) SetAttr(obj types.ObjectID, attr []byte) error {
	p.tick()
	a := p.begin("s4rpc.SetAttr")
	defer p.end(a)
	return p.c.SetAttr(obj, attr)
}

func (p *rpcProbe) PCreate(name string, obj types.ObjectID) error {
	p.tick()
	a := p.begin("s4rpc.PCreate")
	defer p.end(a)
	return p.c.PCreate(name, obj)
}

func (p *rpcProbe) PMount(name string, at types.Timestamp) (types.ObjectID, error) {
	a := p.begin("s4rpc.PMount")
	defer p.end(a)
	return p.c.PMount(name, at)
}

func (p *rpcProbe) Sync() error {
	a := p.begin("s4rpc.Sync")
	defer p.end(a)
	return p.c.Sync()
}

func (p *rpcProbe) Status() (core.StatusInfo, error) {
	a := p.begin("s4rpc.Status")
	defer p.end(a)
	return p.c.Status()
}

// ---- server side: the s4rpc.Backend handed to NewServer ----

// faults refuses or corrupts chosen requests of the clients' loops,
// before or after the drive sees them. Only tests arm it; unarmed it
// injects nothing.
type faults struct {
	window  *atomic.Bool // the meter's measuring flag
	running *atomic.Bool // the meter's running flag

	failWriteAt   atomic.Int64 // refuse the window's n-th Write (1-based) with ErrNoSpace
	failOutsideAt atomic.Int64 // refuse the n-th Write of the loops outside the window: the warm-up comes first
	flipReadAt    atomic.Int64 // flip one byte of the window's n-th data read reply
	writes, reads atomic.Int64
	writesOutside atomic.Int64
}

// minFlipBytes keeps corruption to data reads. s4fs's own reads of
// 128-byte directory records are skipped: s4fs trusts those bytes and
// can panic on a corrupt record, which would end the run rather than
// test the bench's checks.
const minFlipBytes = 512

func (f *faults) refuseWrite() bool {
	if f.window.Load() {
		n := f.failWriteAt.Load()
		return n > 0 && f.writes.Add(1) == n
	}
	n := f.failOutsideAt.Load()
	return n > 0 && f.running.Load() && f.writesOutside.Add(1) == n
}

func (f *faults) corrupt(data []byte) []byte {
	n := f.flipReadAt.Load()
	if n <= 0 || !f.window.Load() || len(data) < minFlipBytes || f.reads.Add(1) != n {
		return data
	}
	// The drive may hand out cached memory; corrupt a copy only.
	out := append([]byte(nil), data...)
	out[0] ^= 0x40
	return out
}

// driveProbe is the drive as the RPC server sees it. Each request the
// workloads issue becomes a drive-entering span whose parent is the
// client call in flight for the same ClientID.
type driveProbe struct {
	*core.Drive
	tr     *tracer
	faults *faults
}

func (d *driveProbe) begin(name string, cred types.Cred) (a, parent *active) {
	parent = d.tr.call(uint32(cred.Client))
	return d.tr.beginDrive(name, parent), parent
}

func (d *driveProbe) Create(cred types.Cred, acl []types.ACLEntry, attr []byte) (types.ObjectID, error) {
	a, p := d.begin("core.Create", cred)
	defer d.tr.endDrive(a, p)
	return d.Drive.Create(cred, acl, attr)
}

func (d *driveProbe) Delete(cred types.Cred, id types.ObjectID) error {
	a, p := d.begin("core.Delete", cred)
	defer d.tr.endDrive(a, p)
	return d.Drive.Delete(cred, id)
}

func (d *driveProbe) Read(cred types.Cred, id types.ObjectID, off, n uint64, at types.Timestamp) ([]byte, error) {
	name := "core.Read"
	if at != types.TimeNowest {
		name = "core.HistRead"
	}
	a, p := d.begin(name, cred)
	defer d.tr.endDrive(a, p)
	data, err := d.Drive.Read(cred, id, off, n, at)
	if err == nil {
		data = d.faults.corrupt(data)
	}
	return data, err
}

func (d *driveProbe) Write(cred types.Cred, id types.ObjectID, off uint64, data []byte) error {
	a, p := d.begin("core.Write", cred)
	defer d.tr.endDrive(a, p)
	if d.faults.refuseWrite() {
		return types.ErrNoSpace
	}
	return d.Drive.Write(cred, id, off, data)
}

func (d *driveProbe) GetAttr(cred types.Cred, id types.ObjectID, at types.Timestamp) (core.AttrInfo, error) {
	a, p := d.begin("core.GetAttr", cred)
	defer d.tr.endDrive(a, p)
	return d.Drive.GetAttr(cred, id, at)
}

func (d *driveProbe) SetAttr(cred types.Cred, id types.ObjectID, attr []byte) error {
	a, p := d.begin("core.SetAttr", cred)
	defer d.tr.endDrive(a, p)
	return d.Drive.SetAttr(cred, id, attr)
}

func (d *driveProbe) PCreate(cred types.Cred, name string, id types.ObjectID) error {
	a, p := d.begin("core.PCreate", cred)
	defer d.tr.endDrive(a, p)
	return d.Drive.PCreate(cred, name, id)
}

func (d *driveProbe) PMount(cred types.Cred, name string, at types.Timestamp) (types.ObjectID, error) {
	a, p := d.begin("core.PMount", cred)
	defer d.tr.endDrive(a, p)
	return d.Drive.PMount(cred, name, at)
}

func (d *driveProbe) Sync(cred types.Cred) error {
	a, p := d.begin("core.Sync", cred)
	defer d.tr.endDrive(a, p)
	return d.Drive.Sync(cred)
}

// ---- device ----

// devCounts is a snapshot of a devProbe's counters.
type devCounts struct{ reads, writes, readBytes, writeBytes int64 }

func (a devCounts) sub(b devCounts) devCounts {
	return devCounts{a.reads - b.reads, a.writes - b.writes, a.readBytes - b.readBytes, a.writeBytes - b.writeBytes}
}

// devProbe is the disk.Device under the drive. Its spans measure the
// simulator's own CPU, which is reported apart from the drive's.
type devProbe struct {
	dev                                 disk.Device
	tr                                  *tracer
	reads, writes, readBytes, writeByte atomic.Int64
}

func (p *devProbe) ReadSectors(sector int64, buf []byte) error {
	a := p.tr.begin("disk.Read", nil)
	err := p.dev.ReadSectors(sector, buf)
	p.tr.endDevice(a)
	p.reads.Add(1)
	p.readBytes.Add(int64(len(buf)))
	return err
}

func (p *devProbe) WriteSectors(sector int64, buf []byte) error {
	a := p.tr.begin("disk.Write", nil)
	err := p.dev.WriteSectors(sector, buf)
	p.tr.endDevice(a)
	p.writes.Add(1)
	p.writeByte.Add(int64(len(buf)))
	return err
}

func (p *devProbe) Capacity() int64 { return p.dev.Capacity() }

func (p *devProbe) counts() devCounts {
	return devCounts{p.reads.Load(), p.writes.Load(), p.readBytes.Load(), p.writeByte.Load()}
}

// cowChunk is the copy-on-write granule, in sectors (64KB).
const cowChunk = 128

// cowDev is a copy-on-write view of a frozen crash image: reads fall
// through to the image until a chunk is written, writes land in a
// private copy. Every restart therefore starts from the same bytes,
// and the image is never copied whole.
type cowDev struct {
	base   disk.Device
	mu     sync.Mutex
	chunks map[int64][]byte
}

func newCow(base disk.Device) *cowDev {
	return &cowDev{base: base, chunks: make(map[int64][]byte)}
}

func (c *cowDev) Capacity() int64 { return c.base.Capacity() }

// eachChunk calls fn for each chunk-sized piece of [sector, sector+len(buf)).
func eachChunk(sector int64, buf []byte, fn func(ci, off int64, part []byte) error) error {
	for len(buf) > 0 {
		ci := sector / cowChunk
		off := (sector % cowChunk) * disk.SectorSize
		n := int64(cowChunk*disk.SectorSize) - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if err := fn(ci, off, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		sector += n / disk.SectorSize
	}
	return nil
}

func (c *cowDev) ReadSectors(sector int64, buf []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return eachChunk(sector, buf, func(ci, off int64, part []byte) error {
		if priv, ok := c.chunks[ci]; ok {
			copy(part, priv[off:])
			return nil
		}
		return c.base.ReadSectors(ci*cowChunk+off/disk.SectorSize, part)
	})
}

func (c *cowDev) WriteSectors(sector int64, buf []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return eachChunk(sector, buf, func(ci, off int64, part []byte) error {
		priv, ok := c.chunks[ci]
		if !ok {
			priv = make([]byte, cowChunk*disk.SectorSize)
			if err := c.base.ReadSectors(ci*cowChunk, priv); err != nil {
				return err
			}
			c.chunks[ci] = priv
		}
		copy(priv[off:], part)
		return nil
	})
}

func (c *cowDev) allocated() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.chunks)) * cowChunk * disk.SectorSize
}

// ---- network ----

// lnProbe counts the bytes that cross every server connection.
type lnProbe struct {
	net.Listener
	bytes *atomic.Int64
}

func (l lnProbe) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return connProbe{c, l.bytes}, nil
}

type connProbe struct {
	net.Conn
	bytes *atomic.Int64
}

func (c connProbe) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c connProbe) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.bytes.Add(int64(n))
	return n, err
}

// ---- file system: PostMark's view of s4fs ----

type dirName struct {
	dir  fsys.Handle
	name string
}

// fsProbe is the fsys.FileSys PostMark drives: s4fs over one rpcProbe
// session. It keeps the bench's own record of every file's bytes and
// checks each read and size against it. Methods PostMark does not call
// pass straight through.
type fsProbe struct {
	fsys.FileSys
	cl    *client
	rpc   *rpcProbe
	files map[fsys.Handle][]byte
	names map[dirName]fsys.Handle
}

func newFSProbe(fs fsys.FileSys, cl *client, rpc *rpcProbe) *fsProbe {
	return &fsProbe{FileSys: fs, cl: cl, rpc: rpc,
		files: make(map[fsys.Handle][]byte), names: make(map[dirName]fsys.Handle)}
}

// recordBytes is the size of the byte model's file contents.
func (f *fsProbe) recordBytes() int64 {
	var n int
	for _, data := range f.files {
		n += cap(data)
	}
	return int64(n)
}

func (f *fsProbe) begin(name string) *active {
	a := f.cl.m.tr.begin(name, nil)
	f.rpc.parent = a
	return a
}

func (f *fsProbe) end(a *active) {
	f.rpc.parent = nil
	f.cl.m.tr.end(a, nil)
}

func (f *fsProbe) Mkdir(dir fsys.Handle, name string, mode uint32) (fsys.Handle, fsys.Attr, error) {
	a := f.begin("s4fs.Mkdir")
	h, attr, err := f.FileSys.Mkdir(dir, name, mode)
	f.end(a)
	if err == nil {
		f.names[dirName{dir, name}] = h
	}
	return h, attr, err
}

// verify checks a file system — the same tree, mounted afresh —
// against the record: every directory lists exactly the recorded
// names, and every file holds exactly the recorded bytes.
func (f *fsProbe) verify(fs fsys.FileSys) {
	m := f.cl.m
	want := map[fsys.Handle]map[string]fsys.Handle{fs.Root(): {}}
	for k, h := range f.names {
		if want[k.dir] == nil {
			want[k.dir] = map[string]fsys.Handle{}
		}
		want[k.dir][k.name] = h
	}
	for dir, names := range want {
		ents, err := fs.ReadDir(dir)
		if err != nil {
			m.mismatch("postmark directory %d: %v", dir, err)
			continue
		}
		got := make(map[string]fsys.Handle, len(ents))
		for _, e := range ents {
			got[e.Name] = e.Handle
		}
		if len(got) != len(names) {
			m.mismatch("postmark directory %d lists %d names, want %d", dir, len(got), len(names))
		}
		for name, h := range names {
			if got[name] != h {
				m.mismatch("postmark directory %d: %q is %d, want %d", dir, name, got[name], h)
			}
		}
	}
	for h, data := range f.files {
		got, err := fs.Read(h, 0, len(data)+1)
		if err != nil {
			m.mismatch("postmark file %d: %v", h, err)
			continue
		}
		m.check(got, data, "postmark file %d", h)
	}
}

func (f *fsProbe) Create(dir fsys.Handle, name string, mode uint32) (fsys.Handle, fsys.Attr, error) {
	t0 := f.cl.mark()
	a := f.begin("s4fs.Create")
	h, attr, err := f.FileSys.Create(dir, name, mode)
	f.end(a)
	f.cl.sample(clsWrite, t0, err)
	if err == nil {
		f.cl.m.writesAcked.Add(1)
		f.files[h] = nil
		f.names[dirName{dir, name}] = h
	}
	return h, attr, err
}

func (f *fsProbe) Write(h fsys.Handle, off uint64, data []byte) error {
	t0 := f.cl.mark()
	a := f.begin("s4fs.Write")
	err := f.FileSys.Write(h, off, data)
	f.end(a)
	f.cl.sample(clsWrite, t0, err)
	if err == nil {
		old := f.files[h]
		if off < uint64(len(old)) {
			f.cl.m.overwritten.Add(int64(min(uint64(len(old))-off, uint64(len(data)))))
		}
		if end := off + uint64(len(data)); end > uint64(len(old)) {
			old = append(old, make([]byte, end-uint64(len(old)))...)
		}
		copy(old[off:], data)
		f.files[h] = old
		f.cl.m.userBytes.Add(int64(len(data)))
		f.cl.m.writesAcked.Add(1)
	}
	return err
}

func (f *fsProbe) Remove(dir fsys.Handle, name string) error {
	t0 := f.cl.mark()
	a := f.begin("s4fs.Remove")
	err := f.FileSys.Remove(dir, name)
	f.end(a)
	f.cl.sample(clsWrite, t0, err)
	if err == nil {
		f.cl.m.writesAcked.Add(1)
		k := dirName{dir, name}
		h := f.names[k]
		f.cl.m.overwritten.Add(int64(len(f.files[h])))
		delete(f.files, h)
		delete(f.names, k)
	}
	return err
}

func (f *fsProbe) GetAttr(h fsys.Handle) (fsys.Attr, error) {
	a := f.begin("s4fs.GetAttr")
	attr, err := f.FileSys.GetAttr(h)
	f.end(a)
	if want, ok := f.files[h]; err == nil && ok && attr.Size != uint64(len(want)) {
		f.cl.m.mismatch("postmark size of %d: got %d, want %d", h, attr.Size, len(want))
	}
	return attr, err
}

func (f *fsProbe) Read(h fsys.Handle, off uint64, n int) ([]byte, error) {
	t0 := f.cl.mark()
	a := f.begin("s4fs.Read")
	data, err := f.FileSys.Read(h, off, n)
	f.end(a)
	f.cl.sample(clsRead, t0, err)
	if err == nil {
		want := f.files[h]
		if off > uint64(len(want)) {
			want = nil
		} else {
			want = want[off:]
		}
		if len(want) > n {
			want = want[:n]
		}
		f.cl.m.check(data, want, "postmark read of %d at %d", h, off)
	}
	return data, err
}
