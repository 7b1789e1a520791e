package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestDataRequestRoundTrip(t *testing.T) {
	f := func(jobID string, mapID, reduceID int32, offset int64, maxBytes, maxRecords int32, addr uint64, rkey uint32) bool {
		if len(jobID) > 65535 {
			jobID = jobID[:65535]
		}
		in := &DataRequest{
			JobID: jobID, MapID: mapID, ReduceID: reduceID, Offset: offset,
			MaxBytes: maxBytes, MaxRecords: maxRecords, RemoteAddr: addr, RKey: rkey,
			Tag: rkey ^ 0x5a5a5a5a,
		}
		out, err := DecodeDataRequest(in.Encode())
		return err == nil && *out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDataResponseRoundTrip(t *testing.T) {
	f := func(mapID, reduceID int32, offset int64, bytes, records int32, eof bool, errStr string, addr uint64, rkey uint32) bool {
		if len(errStr) > 65535 {
			errStr = errStr[:65535]
		}
		in := &DataResponse{
			MapID: mapID, ReduceID: reduceID, Offset: offset,
			Bytes: bytes, Records: records, EOF: eof, Err: errStr,
			RemoteAddr: addr, RKey: rkey, Tag: rkey ^ 0xa5a5a5a5,
			Transient: errStr != "" && eof,
		}
		out, err := DecodeDataResponse(in.Encode())
		return err == nil && *out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWrongType(t *testing.T) {
	req := (&DataRequest{JobID: "j"}).Encode()
	if _, err := DecodeDataResponse(req); err == nil {
		t.Fatal("request decoded as response")
	}
	resp := (&DataResponse{}).Encode()
	if _, err := DecodeDataRequest(resp); err == nil {
		t.Fatal("response decoded as request")
	}
}

func TestDecodeTruncated(t *testing.T) {
	// The trailing tag word is an optional extension, so truncations
	// that only cut into it still decode (as Tag 0); anything shorter
	// must error.
	req := (&DataRequest{JobID: "jobjobjob"}).Encode()
	for i := 0; i < len(req)-4; i++ {
		if _, err := DecodeDataRequest(req[:i]); err == nil {
			t.Fatalf("truncated request of %d bytes accepted", i)
		}
	}
	// Responses carry a 5-byte optional tail (4-byte tag + transient
	// flag); truncations into that tail still decode as zero values.
	resp := (&DataResponse{Err: "some failure"}).Encode()
	for i := 0; i < len(resp)-5; i++ {
		if _, err := DecodeDataResponse(resp[:i]); err == nil {
			t.Fatalf("truncated response of %d bytes accepted", i)
		}
	}
}

func TestDecodeLegacyWithoutTag(t *testing.T) {
	// A pre-ring peer encodes no tag; decoding must succeed with Tag 0
	// and every other field intact.
	req := &DataRequest{JobID: "legacy", MapID: 3, Offset: 99, RKey: 7, Tag: 42}
	enc0 := req.Encode()
	got, err := DecodeDataRequest(enc0[:len(enc0)-4])
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != 0 || got.MapID != 3 || got.Offset != 99 || got.RKey != 7 {
		t.Fatalf("legacy request decode: %+v", got)
	}
	resp := &DataResponse{MapID: 5, Bytes: 11, EOF: true, Tag: 42, Transient: true}
	enc := resp.Encode()
	rgot, err := DecodeDataResponse(enc[:len(enc)-5])
	if err != nil {
		t.Fatal(err)
	}
	if rgot.Tag != 0 || rgot.Transient || rgot.MapID != 5 || rgot.Bytes != 11 || !rgot.EOF {
		t.Fatalf("legacy response decode: %+v", rgot)
	}
	// A ring-era peer that predates the transient flag sends the tag but
	// no qualifier byte: Tag survives, Transient defaults to fatal.
	mgot, err := DecodeDataResponse(enc[:len(enc)-1])
	if err != nil {
		t.Fatal(err)
	}
	if mgot.Tag != 42 || mgot.Transient {
		t.Fatalf("tag-only response decode: %+v", mgot)
	}
}

func TestEncodeAppendReusesBuffer(t *testing.T) {
	scratch := make([]byte, 0, 128)
	r := &DataRequest{JobID: "j", Tag: 9}
	a := r.EncodeAppend(scratch[:0])
	b := r.EncodeAppend(scratch[:0])
	if &a[0] != &b[0] {
		t.Fatal("EncodeAppend did not reuse the scratch buffer")
	}
	got, err := DecodeDataRequest(b)
	if err != nil || got.Tag != 9 || got.JobID != "j" {
		t.Fatalf("round trip via scratch: %+v %v", got, err)
	}
}

func TestResponseEncodeAppendMatchesEncode(t *testing.T) {
	r := &DataResponse{
		MapID: 3, ReduceID: 1, Offset: 77, Bytes: 1024, Records: 12,
		EOF: true, Err: "transient pressure", Transient: true, Tag: 5,
	}
	scratch := make([]byte, 0, 128)
	a := r.EncodeAppend(scratch[:0])
	b := r.EncodeAppend(scratch[:0])
	if &a[0] != &b[0] {
		t.Fatal("EncodeAppend did not reuse the scratch buffer")
	}
	if !bytes.Equal(a, r.Encode()) {
		t.Fatal("EncodeAppend bytes diverge from Encode")
	}
	got, err := DecodeDataResponse(a)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("round trip: %+v != %+v", got, r)
	}
}

func TestDecodeEmpty(t *testing.T) {
	if _, err := DecodeDataRequest(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := DecodeDataResponse(nil); err == nil {
		t.Fatal("nil accepted")
	}
}
