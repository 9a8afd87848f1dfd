package ckpt

import "zapc/internal/imgfmt"

// ImageLayout hands the external tests a pod image's layout.
func ImageLayout(img *Image) func(imgfmt.Visitor) { return img.layout }

// DeltaLayout hands the external tests a delta record's layout.
func DeltaLayout(d *DeltaImage) func(imgfmt.Visitor) { return d.layout }

// ImageNetTag and DeltaNetTag are the tags of the Net section in a pod
// image's layout and in a delta's.
const ImageNetTag, DeltaNetTag = s2Net, d2Net
