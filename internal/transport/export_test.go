package transport

import "metaclass/internal/protocol"

// SendMsg writes msg on c the way the handshake does: encoded into a pooled
// frame, queued and flushed. The tests' raw peers speak through it.
func SendMsg(c *Conn, msg protocol.Message) error { return sendHandshake(c, msg) }

// RecvMsg reads c's next frame and decodes it into a message of its own,
// which outlives the frame and every later read; io.EOF signals a clean
// close.
func RecvMsg(c *Conn) (protocol.Message, error) {
	f, err := c.ReadFrame()
	if err != nil {
		return nil, err
	}
	defer f.Release()
	msg, _, err := new(protocol.Decoder).Decode(f.Bytes())
	return msg, err
}
