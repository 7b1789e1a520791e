// Package wire defines the control-message formats the RDMA shuffle
// engines exchange over UCR end-points. As the paper specifies, "each
// request and response messages consist of various identification and
// control parameters such as map id, reduce id, job id, number of key
// value pairs sent etc." (§III-B.1). Bulk data never travels in these
// messages — the responder RDMA-writes it directly into the copier's
// registered buffer; these headers carry only identification, addressing,
// and accounting.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message type tags.
const (
	TypeDataRequest  = 0x01
	TypeDataResponse = 0x02
)

// Errors.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrBadType   = errors.New("wire: unexpected message type")
)

// DataRequest asks a TaskTracker for the next packet of one map output
// partition. Offset is a byte offset into the partition's record body,
// always on a record boundary; MaxBytes is the copier's registered buffer
// capacity; MaxRecords is the mapred.rdma.kvpairs.per.packet tunable.
// RemoteAddr/RKey address the copier's buffer for the RDMA write.
//
// Tag identifies the copier-side bounce-buffer slot this request was
// issued from; the responder echoes it so responses for different slots
// on the same connection can complete out of order. The field rides at
// the tail of the encoding and decoders tolerate its absence (Tag 0), so
// peers predating the slot ring still interoperate.
type DataRequest struct {
	JobID      string
	MapID      int32
	ReduceID   int32
	Offset     int64
	MaxBytes   int32
	MaxRecords int32
	RemoteAddr uint64
	RKey       uint32
	Tag        uint32
}

// Encode serializes the request.
func (r *DataRequest) Encode() []byte {
	return r.EncodeAppend(make([]byte, 0, 64+len(r.JobID)))
}

// EncodeAppend serializes the request into buf (reusing its capacity) and
// returns the extended slice. Hot senders keep a scratch buffer so the
// request pump does not allocate per chunk.
func (r *DataRequest) EncodeAppend(buf []byte) []byte {
	buf = append(buf, TypeDataRequest)
	buf = appendString(buf, r.JobID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.MapID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.ReduceID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Offset))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.MaxBytes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.MaxRecords))
	buf = binary.LittleEndian.AppendUint64(buf, r.RemoteAddr)
	buf = binary.LittleEndian.AppendUint32(buf, r.RKey)
	buf = binary.LittleEndian.AppendUint32(buf, r.Tag)
	return buf
}

// DecodeDataRequest parses a request message.
func DecodeDataRequest(b []byte) (*DataRequest, error) {
	if len(b) < 1 || b[0] != TypeDataRequest {
		return nil, ErrBadType
	}
	b = b[1:]
	jobID, b, err := takeString(b)
	if err != nil {
		return nil, err
	}
	if len(b) < 4+4+8+4+4+8+4 {
		return nil, ErrTruncated
	}
	r := &DataRequest{JobID: jobID}
	r.MapID = int32(binary.LittleEndian.Uint32(b[0:4]))
	r.ReduceID = int32(binary.LittleEndian.Uint32(b[4:8]))
	r.Offset = int64(binary.LittleEndian.Uint64(b[8:16]))
	r.MaxBytes = int32(binary.LittleEndian.Uint32(b[16:20]))
	r.MaxRecords = int32(binary.LittleEndian.Uint32(b[20:24]))
	r.RemoteAddr = binary.LittleEndian.Uint64(b[24:32])
	r.RKey = binary.LittleEndian.Uint32(b[32:36])
	// Tag is a tail extension: absent in messages from older peers (Tag 0).
	if len(b) >= 40 {
		r.Tag = binary.LittleEndian.Uint32(b[36:40])
	}
	return r, nil
}

// DataResponse acknowledges one packet: Bytes of payload holding Records
// whole key-value pairs were RDMA-written at the requested address. EOF
// marks the final packet of the partition. A non-empty Err reports a
// serving failure (no payload was written).
type DataResponse struct {
	MapID    int32
	ReduceID int32
	Offset   int64 // echo of the request offset
	Bytes    int32
	Records  int32
	EOF      bool
	Err      string
	// RemoteAddr/RKey advertise a server-side staging region for
	// read-based engines (Hadoop-A's levitated merge RDMA-READs the
	// payload from here). Write-based engines leave them zero.
	RemoteAddr uint64
	RKey       uint32
	// Tag echoes the request's slot tag so pipelined copiers can match a
	// response to the bounce-buffer slot it was written into. Tail
	// extension: decoders accept messages without it (Tag 0).
	Tag uint32
	// Transient qualifies a non-empty Err: true means the serving failure
	// was environmental (RDMA write failed, staging pressure) and the
	// same request may succeed if re-issued; false means the data itself
	// is unavailable (map output missing) and the requester should
	// escalate to map re-execution. Tail extension: decoders default to
	// false (pre-robustness peers only reported fatal errors).
	Transient bool
}

// Encode serializes the response.
func (r *DataResponse) Encode() []byte {
	return r.EncodeAppend(make([]byte, 0, 40+len(r.Err)))
}

// EncodeAppend serializes the response into buf (reusing its capacity)
// and returns the extended slice. Zero-copy responders encode straight
// into a pooled registered header region so the header send allocates
// nothing.
func (r *DataResponse) EncodeAppend(buf []byte) []byte {
	buf = append(buf, TypeDataResponse)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.MapID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.ReduceID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Offset))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Bytes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Records))
	if r.EOF {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendString(buf, r.Err)
	buf = binary.LittleEndian.AppendUint64(buf, r.RemoteAddr)
	buf = binary.LittleEndian.AppendUint32(buf, r.RKey)
	buf = binary.LittleEndian.AppendUint32(buf, r.Tag)
	if r.Transient {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// DecodeDataResponse parses a response message.
func DecodeDataResponse(b []byte) (*DataResponse, error) {
	if len(b) < 1 || b[0] != TypeDataResponse {
		return nil, ErrBadType
	}
	b = b[1:]
	if len(b) < 4+4+8+4+4+1 {
		return nil, ErrTruncated
	}
	r := &DataResponse{}
	r.MapID = int32(binary.LittleEndian.Uint32(b[0:4]))
	r.ReduceID = int32(binary.LittleEndian.Uint32(b[4:8]))
	r.Offset = int64(binary.LittleEndian.Uint64(b[8:16]))
	r.Bytes = int32(binary.LittleEndian.Uint32(b[16:20]))
	r.Records = int32(binary.LittleEndian.Uint32(b[20:24]))
	r.EOF = b[24] == 1
	errStr, rest, err := takeString(b[25:])
	if err != nil {
		return nil, err
	}
	r.Err = errStr
	if len(rest) < 12 {
		return nil, ErrTruncated
	}
	r.RemoteAddr = binary.LittleEndian.Uint64(rest[0:8])
	r.RKey = binary.LittleEndian.Uint32(rest[8:12])
	// Tag and Transient are tail extensions: absent in messages from
	// older peers (Tag 0, Transient false).
	if len(rest) >= 16 {
		r.Tag = binary.LittleEndian.Uint32(rest[12:16])
	}
	if len(rest) >= 17 {
		r.Transient = rest[16] == 1
	}
	return r, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("%w: string of %d in %d bytes", ErrTruncated, n, len(b))
	}
	return string(b[:n]), b[n:], nil
}
