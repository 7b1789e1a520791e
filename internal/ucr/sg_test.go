package ucr

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"rdmamr/internal/verbs"
)

func TestSendSGGathersOneMessage(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	hdr, err := cep.RegisterMemory([]byte("HDR|"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := cep.RegisterMemory([]byte("..payload.."))
	if err != nil {
		t.Fatal(err)
	}
	err = cep.SendSG(ctx, []verbs.SGE{
		{MR: hdr, Length: 4},
		{MR: body, Offset: 2, Length: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := sep.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("HDR|payload"); !bytes.Equal(msg, want) {
		t.Fatalf("gathered message = %q, want %q", msg, want)
	}
}

func TestSendSGRejectsOversizedTotal(t *testing.T) {
	cep, _ := connected(t)
	ctx := ctxT(t)
	big, err := cep.RegisterMemory(make([]byte, MaxMessage))
	if err != nil {
		t.Fatal(err)
	}
	err = cep.SendSG(ctx, []verbs.SGE{
		{MR: big, Length: MaxMessage},
		{MR: big, Length: 1},
	})
	if err == nil {
		t.Fatal("gathered total above MaxMessage accepted")
	}
}

func TestWriteSGGathersIntoRemote(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	dst, err := sep.RegisterMemory(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	a, err := cep.RegisterMemory([]byte("zero"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cep.RegisterMemory([]byte("##copy##"))
	if err != nil {
		t.Fatal(err)
	}
	err = cep.WriteSG(ctx, []verbs.SGE{
		{MR: a, Length: 4},
		{MR: b, Offset: 2, Length: 4},
	}, dst.Addr()+1, dst.RKey())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dst.Bytes()[1:9], []byte("zerocopy"); !bytes.Equal(got, want) {
		t.Fatalf("remote buffer = %q, want %q", got, want)
	}
}

func TestRDMAReadDeadRegionIsTransport(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	src, err := sep.RegisterMemory(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := cep.RegisterMemory(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	addr, rkey := src.Addr(), src.RKey()
	if err := src.Deregister(); err != nil {
		t.Fatal(err)
	}
	err = cep.RDMARead(ctx, verbs.SGE{MR: dst, Length: 32}, addr, rkey)
	if err == nil {
		t.Fatal("read from deregistered region succeeded")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("error %v does not match ErrTransport (classifier contract)", err)
	}
}

func TestWriteSGBadRKeyFails(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	dst, err := sep.RegisterMemory(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	src, err := cep.RegisterMemory(make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	err = cep.WriteSG(ctx, []verbs.SGE{{MR: src, Length: 8}}, dst.Addr(), dst.RKey()+1)
	if err == nil {
		t.Fatal("bad rkey write succeeded")
	}
}

// TestSendSGConcurrentWithSend: gather sends interleave safely with
// staged sends on the same end-point (sendMu serializes them) and every
// message arrives intact.
func TestSendSGConcurrentWithSend(t *testing.T) {
	cep, sep := connected(t)
	ctx := ctxT(t)
	sg, err := cep.RegisterMemory([]byte("G"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := cep.Send(ctx, []byte("S")); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := cep.SendSG(ctx, []verbs.SGE{{MR: sg, Length: 1}}); err != nil {
				t.Errorf("sendSG: %v", err)
				return
			}
		}
	}()
	var staged, gathered int
	for i := 0; i < 2*n; i++ {
		msg, err := sep.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		switch string(msg) {
		case "S":
			staged++
		case "G":
			gathered++
		default:
			t.Fatalf("corrupt message %q", msg)
		}
	}
	wg.Wait()
	if staged != n || gathered != n {
		t.Fatalf("staged=%d gathered=%d, want %d each", staged, gathered, n)
	}
}
