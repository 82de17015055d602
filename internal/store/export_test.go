package store

import "errors"

// errInjected is the error every call a faultFiles fails returns.
var errInjected = errors.New("injected fault")

// faultFiles is a file layer that fails one chosen call. It numbers every
// call FS makes through it (calls, in order) and fails call failAt
// (1-based; 0 fails none). A failed write is short: it lands the first
// half of its bytes, then errs. A failed sync or close keeps what was
// written, as a real fsync error does.
type faultFiles struct {
	fileLayer
	failAt int
	calls  []string
}

// injectFaults puts s's file layer under a faultFiles failing call failAt.
func injectFaults(s *FS, failAt int) *faultFiles {
	ff := &faultFiles{fileLayer: s.files, failAt: failAt}
	s.files = ff
	return ff
}

// hit records one call and reports whether it is the one to fail.
func (ff *faultFiles) hit(op string) bool {
	ff.calls = append(ff.calls, op)
	return len(ff.calls) == ff.failAt
}

func (ff *faultFiles) openFile(path string, flag int) (file, error) {
	if ff.hit("open") {
		return nil, errInjected
	}
	f, err := ff.fileLayer.openFile(path, flag)
	if err != nil {
		return nil, err
	}
	return &faultFile{file: f, ff: ff}, nil
}

func (ff *faultFiles) createTemp(dir, pattern string) (file, error) {
	if ff.hit("createTemp") {
		return nil, errInjected
	}
	f, err := ff.fileLayer.createTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{file: f, ff: ff}, nil
}

func (ff *faultFiles) rename(from, to string) error {
	if ff.hit("rename") {
		return errInjected
	}
	return ff.fileLayer.rename(from, to)
}

func (ff *faultFiles) remove(path string) error {
	if ff.hit("remove") {
		return errInjected
	}
	return ff.fileLayer.remove(path)
}

func (ff *faultFiles) truncate(path string, size int64) error {
	if ff.hit("truncate") {
		return errInjected
	}
	return ff.fileLayer.truncate(path, size)
}

func (ff *faultFiles) syncDir(dir string) error {
	if ff.hit("syncDir") {
		return errInjected
	}
	return ff.fileLayer.syncDir(dir)
}

type faultFile struct {
	file
	ff *faultFiles
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.ff.hit("write") {
		n, _ := f.file.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.file.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.ff.hit("write") {
		n, _ := f.file.WriteAt(p[:len(p)/2], off)
		return n, errInjected
	}
	return f.file.WriteAt(p, off)
}

func (f *faultFile) Sync() error {
	if f.ff.hit("sync") {
		return errInjected
	}
	return f.file.Sync()
}

func (f *faultFile) Close() error {
	if f.ff.hit("close") {
		f.file.Close() // the injected error is the one under test
		return errInjected
	}
	return f.file.Close()
}
