package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// conn is one keep-alive HTTP/1.1 connection to the server. Requests are
// written and replies parsed by hand into reused buffers: the closed-loop
// clients share the process, and so the heap and the collector, with the
// server, and a client that made garbage per request would set the
// server's GC pace. A real caller's garbage lives in another process.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	req  []byte // request head and body, reused
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10), host: addr}, nil
}

func (c *conn) close() error { return c.c.Close() }

// post sends one POST and reads the whole reply into dst[:0], returning
// the status and the grown buffer.
func (c *conn) post(path string, body, dst []byte) (int, []byte, error) {
	r := append(c.req[:0], "POST "...)
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: "...)
	r = append(r, c.host...)
	r = append(r, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	r = strconv.AppendInt(r, int64(len(body)), 10)
	r = append(r, "\r\n\r\n"...)
	r = append(r, body...)
	c.req = r
	if _, err := c.c.Write(r); err != nil {
		return 0, dst, err
	}
	line, err := c.line()
	if err != nil {
		return 0, dst, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, dst, fmt.Errorf("bad status line %q", line)
	}
	status, err := atoi(line[9:12])
	if err != nil {
		return 0, dst, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err := c.line()
		if err != nil {
			return status, dst, err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = atoi(value); err != nil {
				return status, dst, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	dst = dst[:0]
	switch {
	case chunked:
		return status, dst, c.chunks(&dst)
	case length >= 0:
		dst, err = c.read(dst, length)
		return status, dst, err
	}
	return status, dst, errors.New("reply has neither Content-Length nor chunked encoding")
}

// chunks reads a chunked body, then its (empty) trailer.
func (c *conn) chunks(dst *[]byte) error {
	for {
		line, err := c.line()
		if err != nil {
			return err
		}
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		size, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			for {
				line, err := c.line()
				if err != nil || len(line) == 0 {
					return err
				}
			}
		}
		if *dst, err = c.read(*dst, int(size)); err != nil {
			return err
		}
		if line, err := c.line(); err != nil || len(line) != 0 {
			return fmt.Errorf("chunk not followed by CRLF: %v", err)
		}
	}
}

// read appends exactly n bytes of the stream to dst.
func (c *conn) read(dst []byte, n int) ([]byte, error) {
	start := len(dst)
	if cap(dst)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+n]
	_, err := io.ReadFull(c.br, dst[start:])
	return dst, err
}

// line returns the next line without its CRLF; it is valid until the
// next read.
func (c *conn) line() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

func atoi(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errors.New("empty number")
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("not a number: %q", b)
		}
		n = n*10 + int(ch-'0')
	}
	return n, nil
}
