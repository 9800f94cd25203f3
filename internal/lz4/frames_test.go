package lz4

import "encoding/binary"

// breakoutLike builds the byte shape of a serialized Atari rollout without
// depending on the environment package: steps of four stacked 84×84
// grayscale frames (consecutive steps share three of them) separated by a
// few dozen bytes of incompressible per-step scalars. The screen is a wall,
// six brick bands that lose bricks over time, a paddle and a ball on a black
// background. Everything derives from a fixed LCG, so the bytes — and the
// golden block pinned in testdata/ — never change.
func breakoutLike(steps int) []byte {
	const side = 84
	lcg := uint32(0x2545F491)
	next := func() uint32 {
		lcg = lcg*1664525 + 1013904223
		return lcg >> 8
	}
	var bricks [6][14]bool
	for r := range bricks {
		for c := range bricks[r] {
			bricks[r][c] = true
		}
	}
	ballX, ballY, dx, dy := 40, 50, 1, -1
	paddle := 36
	render := func() []byte {
		f := make([]byte, side*side)
		for y := 8; y < 11; y++ {
			for x := 0; x < side; x++ {
				f[y*side+x] = 142
			}
		}
		for r := range bricks {
			for c, alive := range bricks[r] {
				if !alive {
					continue
				}
				for y := 18 + 3*r; y < 21+3*r; y++ {
					for x := 6 * c; x < 6*c+6; x++ {
						f[y*side+x] = byte(200 - 20*r)
					}
				}
			}
		}
		for x := paddle; x < paddle+12; x++ {
			f[78*side+x] = 200
			f[79*side+x] = 200
		}
		f[ballY*side+ballX] = 236
		f[ballY*side+ballX+1] = 236
		return f
	}
	advance := func() {
		ballX += 2 * dx
		ballY += 2 * dy
		if ballX <= 1 || ballX >= side-3 {
			dx = -dx
		}
		if ballY <= 12 || ballY >= 76 {
			dy = -dy
		}
		if ballY < 36 && next()%3 == 0 {
			bricks[next()%6][next()%14] = false
		}
		paddle = int(next() % (side - 12))
	}

	stack := make([][]byte, 4)
	for i := range stack {
		stack[i] = render()
		advance()
	}
	var out []byte
	for s := 0; s < steps; s++ {
		out = append(out, 2) // the codec's frame-observation tag
		out = binary.LittleEndian.AppendUint32(out, side)
		out = binary.LittleEndian.AppendUint32(out, side)
		out = binary.LittleEndian.AppendUint32(out, 4)
		out = binary.LittleEndian.AppendUint32(out, 4*side*side)
		for _, f := range stack {
			out = append(out, f...)
		}
		out = binary.LittleEndian.AppendUint32(out, next()%4) // action
		for i := 0; i < 7; i++ {                              // reward, value, log-prob, logits
			out = binary.LittleEndian.AppendUint32(out, next()<<8|next()&0xFF)
		}
		copy(stack, stack[1:])
		stack[3] = render()
		advance()
	}
	return out
}
