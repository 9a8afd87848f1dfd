package ckpt

import "zapc/internal/imgfmt"

// ImageLayout hands the external tests a pod image's layout.
func ImageLayout(img *Image) func(imgfmt.Visitor) { return img.layout }
